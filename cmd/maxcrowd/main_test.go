package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func captureRun(t *testing.T) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := run(context.Background())
	w.Close()
	os.Stdout = old
	return <-done, errRun
}

func setFlags(t *testing.T, nv int, algoV, dataV string, unV, ueV int, est bool) {
	t.Helper()
	oldN, oldAlgo, oldData, oldUn, oldUe, oldEst := *n, *algo, *data, *un, *ue, *estimat
	*n, *algo, *data, *un, *ue, *estimat = nv, algoV, dataV, unV, ueV, est
	t.Cleanup(func() { *n, *algo, *data, *un, *ue, *estimat = oldN, oldAlgo, oldData, oldUn, oldUe, oldEst })
}

func TestRunAlg1Uniform(t *testing.T) {
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase 1 kept", "true rank", "cost C(n)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselinesAndDatasets(t *testing.T) {
	cases := []struct{ algo, data string }{
		{"2mf-naive", "uniform"},
		{"2mf-expert", "cars"},
		{"randomized", "uniform"},
		{"alg1", "dots"},
		{"alg1", "search"},
	}
	for _, tc := range cases {
		setFlags(t, 200, tc.algo, tc.data, 5, 2, false)
		out, err := captureRun(t)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.algo, tc.data, err)
		}
		if !strings.Contains(out, "returned") {
			t.Fatalf("%s/%s: output missing result line:\n%s", tc.algo, tc.data, out)
		}
	}
}

func TestRunWithEstimation(t *testing.T) {
	setFlags(t, 400, "alg1", "uniform", 8, 3, true)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Algorithm 4 estimated un=") {
		t.Fatalf("estimation line missing:\n%s", out)
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	setFlags(t, 100, "bogus", "uniform", 5, 2, false)
	if _, err := captureRun(t); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	setFlags(t, 100, "alg1", "bogus", 5, 2, false)
	if _, err := captureRun(t); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunWithCSVInput(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/data.csv"
	csv := "label,value\n"
	for i := 0; i < 60; i++ {
		csv += fmt.Sprintf("thing-%d,%d\n", i, i*10)
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	oldInput := *input
	*input = path
	t.Cleanup(func() { *input = oldInput })
	setFlags(t, 0, "alg1", "uniform", 4, 2, false)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "thing-59") {
		t.Fatalf("CSV max not reported:\n%s", out)
	}
}

func TestRunTopK(t *testing.T) {
	oldTopK := *topk
	*topk = 4
	t.Cleanup(func() { *topk = oldTopK })
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "top 4 (best first):") {
		t.Fatalf("top-k output missing:\n%s", out)
	}
}

func setRobustFlags(t *testing.T, ck string, every int, resume, chaos string) {
	t.Helper()
	oldCk, oldEvery, oldResume, oldChaos := *ckPath, *ckEvery, *resumeCk, *chaosArg
	*ckPath, *ckEvery, *resumeCk, *chaosArg = ck, every, resume, chaos
	t.Cleanup(func() { *ckPath, *ckEvery, *resumeCk, *chaosArg = oldCk, oldEvery, oldResume, oldChaos })
}

func TestRunCrashAndResumeMatchesCleanRun(t *testing.T) {
	dir := t.TempDir()
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)

	// Uninterrupted checkpointed run: the reference stdout.
	setRobustFlags(t, dir+"/clean.ck", 64, "", "")
	want, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}

	// Same run, killed after 200 comparisons by the crash injector.
	path := dir + "/crash.ck"
	setRobustFlags(t, path, 64, "", "crash:200")
	if _, err := captureRun(t); err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("crashed run: err = %v, want an injected crash", err)
	}

	// Resume from the snapshot: stdout must be byte-identical to the
	// uninterrupted run.
	setRobustFlags(t, path, 64, path, "")
	got, err := captureRun(t)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got != want {
		t.Fatalf("resumed stdout differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestRunWithSpammerChaos(t *testing.T) {
	setFlags(t, 200, "alg1", "uniform", 6, 3, false)
	setRobustFlags(t, "", 500, "", "spammer:0.1")
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "returned") {
		t.Fatalf("chaos run produced no result:\n%s", out)
	}
}

func TestRunExpertOutageDegradesToNaiveMajority(t *testing.T) {
	// The acceptance scenario: the expert backend dies for good mid-run.
	// With the degrade controller (on by default) the run must complete
	// without error and report the naive-majority rung's δn guarantee.
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)
	setRobustFlags(t, "", 500, "", "expert-outage:1.0@0+")
	out, err := captureRun(t)
	if err != nil {
		t.Fatalf("expert outage was not absorbed: %v", err)
	}
	if !strings.Contains(out, "guarantee: δn (rung naive-majority)") {
		t.Fatalf("degraded run did not report the δn rung:\n%s", out)
	}

	// With -degrade=false the same outage is a hard failure again.
	old := *degraded
	*degraded = false
	t.Cleanup(func() { *degraded = old })
	if _, err := captureRun(t); err == nil {
		t.Fatal("-degrade=false still absorbed the expert outage")
	}
}

func setModeFlags(t *testing.T, m string, k, v int) {
	t.Helper()
	oldMode, oldK, oldVotes := *mode, *kRanks, *votes
	*mode, *kRanks, *votes = m, k, v
	t.Cleanup(func() { *mode, *kRanks, *votes = oldMode, oldK, oldVotes })
}

func TestRunModeTopK(t *testing.T) {
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)
	setModeFlags(t, "topk", 3, 0)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top 3 (best first):", "rung expert-2maxfind", "guarantee: 2δe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("topk output missing %q:\n%s", want, out)
		}
	}
}

func TestRunModeScore(t *testing.T) {
	setFlags(t, 300, "alg1", "uniform", 6, 3, false)
	setModeFlags(t, "score", 0, 5)
	out, err := captureRun(t)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"top crowd scores", "rung score-expert", "guarantee: 2δe@subset"} {
		if !strings.Contains(out, want) {
			t.Fatalf("score output missing %q:\n%s", want, out)
		}
	}
}

func TestRunModeCrashAndResume(t *testing.T) {
	for _, tc := range []struct {
		m        string
		k, votes int
		crash    string
	}{
		{"topk", 3, 0, "crash:200"},
		{"score", 0, 4, "crash:300"},
	} {
		setFlags(t, 300, "alg1", "uniform", 6, 3, false)
		setModeFlags(t, tc.m, tc.k, tc.votes)

		setRobustFlags(t, t.TempDir()+"/clean.ck", 64, "", "")
		want, err := captureRun(t)
		if err != nil {
			t.Fatalf("%s clean: %v", tc.m, err)
		}

		path := t.TempDir() + "/crash.ck"
		setRobustFlags(t, path, 64, "", tc.crash)
		if _, err := captureRun(t); err == nil || !strings.Contains(err.Error(), "crashed") {
			t.Fatalf("%s crashed run: err = %v, want an injected crash", tc.m, err)
		}

		setRobustFlags(t, path, 64, path, "")
		got, err := captureRun(t)
		if err != nil {
			t.Fatalf("%s resume: %v", tc.m, err)
		}
		if got != want {
			t.Fatalf("%s resumed stdout differs:\n--- want ---\n%s--- got ---\n%s", tc.m, want, got)
		}
	}
}

func TestRunModeFlagValidation(t *testing.T) {
	setFlags(t, 100, "alg1", "uniform", 5, 2, false)
	for _, tc := range []struct {
		m        string
		k, votes int
	}{
		{"topk", 0, 0},   // -mode topk needs -k
		{"max", 3, 0},    // -k without -mode topk
		{"max", 0, 5},    // -votes without -mode score
		{"score", 2, 0},  // -k with -mode score
		{"topk", 2, 5},   // -votes with -mode topk
		{"bogus", 0, 0},  // unknown mode
		{"score", 0, -1}, // negative votes
	} {
		setModeFlags(t, tc.m, tc.k, tc.votes)
		if _, err := captureRun(t); err == nil {
			t.Fatalf("mode=%q k=%d votes=%d accepted", tc.m, tc.k, tc.votes)
		}
	}
}

func TestRunRobustFlagsRejectOtherModes(t *testing.T) {
	setFlags(t, 100, "2mf-naive", "uniform", 5, 2, false)
	setRobustFlags(t, t.TempDir()+"/x.ck", 64, "", "")
	if _, err := captureRun(t); err == nil {
		t.Fatal("-checkpoint accepted with a baseline algorithm")
	}
}
