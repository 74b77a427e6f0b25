package main

import (
	"reflect"
	"testing"
)

// exact are the per-layer metrics that count work rather than time it:
// they must repeat exactly for a seed, whatever the timing.
var exact = []string{
	"http.requests_per_op",
	"checkpoint.writes_per_op", "checkpoint.kb_per_op",
	"store.writes_per_op", "store.kb_per_op",
	"storage.syncs_per_op", "storage.write_kb_per_op",
	"core.naive_cmp_per_op", "core.expert_cmp_per_op", "core.candidates_per_op",
}

func exactOf(rep *report) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range rep.metrics {
		for _, name := range exact {
			if m.name == name {
				out[name] = m.value
			}
		}
	}
	return out
}

// TestCountsRepeatPerSeed runs each workload traced twice on one seed and
// once on another: the answer digest and every count must repeat exactly
// on the same seed — across the untraced and traced pass too — and the
// answers and the bill must change with the seed.
func TestCountsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		w.warm = 2 // the warm-up is not under test
		t.Run(w.name, func(t *testing.T) {
			run := func(seed uint64) *report {
				rep, err := measure(w, config{seed: seed, trace: true, ops: 12})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.passes) != 2 {
					t.Fatalf("%d passes, want 2", len(rep.passes))
				}
				if !reflect.DeepEqual(rep.passes[0], rep.passes[1]) {
					t.Fatalf("untraced and traced pass differ:\n%+v\n%+v", rep.passes[0], rep.passes[1])
				}
				return rep
			}
			a, b, other := run(7), run(7), run(8)
			if !reflect.DeepEqual(a.passes, b.passes) {
				t.Fatalf("seed 7 repeated differently:\n%+v\n%+v", a.passes, b.passes)
			}
			if ea, eb := exactOf(a), exactOf(b); len(ea) != len(exact) || !reflect.DeepEqual(ea, eb) {
				t.Fatalf("per-layer counts differ for one seed:\n%v\n%v", ea, eb)
			}
			p, q := a.passes[0], other.passes[0]
			if p.Digest == q.Digest || p.Counts["cost_per_op"] == q.Counts["cost_per_op"] {
				t.Fatalf("seeds 7 and 8 gave the same answers or bill: %+v", p)
			}
		})
	}
}

// TestVerifyRejectsWrongAnswers feeds the ground-truth check answers it
// must refuse.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	w, _ := workloadByName("svc-max")
	in := genOps(w, 1, streamMeasured, 1)[0]
	best, worst := 0, 0
	for i, v := range in.values {
		if v > in.values[best] {
			best = i
		}
		if v < in.values[worst] {
			worst = i
		}
	}
	ok := answer{state: "done", ranks: []rank{{best, "expert-2maxfind", "2δe"}}, naive: 5, expert: 2, cost: 25}
	if err := verify(w, in, ok); err != nil {
		t.Fatalf("true maximum refused: %v", err)
	}
	bad := map[string]answer{}
	a := ok
	a.ranks = []rank{{worst, "expert-2maxfind", "2δe"}}
	bad["far from the maximum"] = a
	a = ok
	a.ranks = []rank{{best, "naive-majority", "2δe"}}
	bad["label stronger than its rung"] = a
	a = ok
	a.ranks = []rank{{best, "best-so-far", "best-so-far"}}
	bad["unbounded label"] = a
	a = ok
	a.cost = 24
	bad["bill does not add up"] = a
	a = ok
	a.state = "failed"
	bad["not done"] = a
	for name, a := range bad {
		if verify(w, in, a) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTopKInstancesBoundU pins that every generated top-k instance meets
// the filter's precondition for every rank, and that the precondition
// check refuses an instance that breaks it.
func TestTopKInstancesBoundU(t *testing.T) {
	w, _ := workloadByName("svc-topk")
	for i, in := range genOps(w, 1856580783, streamMeasured, 400) {
		if !uBoundsTopK(in.values, in.dn, w.un, w.k) {
			t.Fatalf("op %d: un=%d does not bound every rank", i, w.un)
		}
	}
	// The maximum stands alone; the second value has three values, itself
	// included, within 0.1 below it.
	values := []float64{1, 0.5, 0.45, 0.42, 0.1}
	if !uBoundsTopK(values, 0.1, 2, 1) || uBoundsTopK(values, 0.1, 2, 2) {
		t.Fatal("precondition check misjudged a hand-made instance")
	}
}
