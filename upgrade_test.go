package crowdmax

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"crowdmax/internal/dataset"
)

// TestResumeAcrossScheduleUpgrade resumes checkpoints that the per-group
// ("lockstep") comparison schedule wrote at commit 891691f, the last commit
// that had it: a maxcrowdd upgraded across the schedule change must finish
// the jobs the old binary left in flight. Both runs are the golden
// snapshot runs, crashed mid-filter — max-find after 1000 paid comparisons
// (last snapshot at 959, in the filter's first iteration) and top-k after
// 2960 (last snapshot at 2949, in the second rank's filter). Their
// snapshots' Steps and MemoHits count per-group steps and hits; the resumed
// runs must still reach the uninterrupted run's answer, paid counts, cost
// and labels.
func TestResumeAcrossScheduleUpgrade(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(33))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 77
	for _, r := range []struct {
		file   string
		w      Workload
		mutate func(*Config)
	}{
		{"lockstep-maxfind.ck", MaxFind(), func(c *Config) {
			c.Degrade = &DegradeConfig{}
			c.Budget = BudgetLimits{MaxCost: 1e9, Prices: c.Prices}
		}},
		{"lockstep-topk.ck", TopKWorkload(3), nil},
	} {
		t.Run(r.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", r.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.ck")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			want, err := statelessSession(t, cal, seed, r.mutate).Run(context.Background(), r.w, items)
			if err != nil {
				t.Fatal(err)
			}
			resumed := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
				if r.mutate != nil {
					r.mutate(c)
				}
			})
			got, err := resumed.ResumeWorkload(context.Background(), r.w, path, items)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got.Best.ID != want.Best.ID || got.NaiveComparisons != want.NaiveComparisons ||
				got.ExpertComparisons != want.ExpertComparisons || got.Cost != want.Cost ||
				got.Rung != want.Rung || got.Guarantee != want.Guarantee {
				t.Fatalf("resumed best %d (%d naive, %d expert, cost %g, %s/%s), uninterrupted %d (%d, %d, %g, %s/%s)",
					got.Best.ID, got.NaiveComparisons, got.ExpertComparisons, got.Cost, got.Rung, got.Guarantee,
					want.Best.ID, want.NaiveComparisons, want.ExpertComparisons, want.Cost, want.Rung, want.Guarantee)
			}
			if len(got.Ranked) != len(want.Ranked) {
				t.Fatalf("%d ranks, want %d", len(got.Ranked), len(want.Ranked))
			}
			for i := range got.Ranked {
				if got.Ranked[i] != want.Ranked[i] {
					t.Fatalf("rank %d: %+v, want %+v", i+1, got.Ranked[i], want.Ranked[i])
				}
			}
		})
	}
}
