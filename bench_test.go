// Benchmarks regenerating each table and figure of the paper's evaluation.
// One benchmark per experiment, on a reduced sweep so `go test -bench=.`
// completes quickly; run cmd/benchrun for the full paper-scale sweeps.
package crowdmax_test

import (
	"context"
	"testing"

	"crowdmax"
	"crowdmax/internal/experiment"
)

// benchSweep is a reduced version of the paper's 1000..5000 sweep.
func benchSweep(un, ue int) experiment.Sweep {
	return experiment.Sweep{Ns: []int{500, 1000}, Un: un, Ue: ue, Trials: 2, Seed: 2015}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiment.Fig2(experiment.Fig2Config{
			Seed: uint64(i), PairsPerBand: 10, Repeats: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		un, ue int
	}{{"un10ue5", 10, 5}, {"un50ue10", 50, 10}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchSweep(cfg.un, cfg.ue)
				s.Seed = uint64(i)
				if _, err := experiment.Fig3(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSweep(10, 5)
		s.Seed = uint64(i)
		if _, err := experiment.Fig4(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig5(context.Background(), experiment.CostConfig{
			Sweep: benchSweep(10, 5), CE: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6(context.Background(), experiment.Fig6Config{
			Sweep: benchSweep(10, 5),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(context.Background(), experiment.FactorCostConfig{
			CostConfig: experiment.CostConfig{Sweep: benchSweep(10, 5), CE: 20},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9(context.Background(), experiment.CostConfig{
			Sweep: benchSweep(10, 5), CE: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig10(experiment.FactorCostConfig{
			CostConfig: experiment.CostConfig{Sweep: benchSweep(10, 5), CE: 50},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Retention(context.Background(), experiment.Fig6Config{
			Sweep:   benchSweep(10, 5),
			Factors: []float64{0.2, 0.5, 0.8, 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(context.Background(), experiment.CrowdConfig{
			Seed: uint64(i), Spammers: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Table2(context.Background(), experiment.CrowdConfig{
			Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SearchEval(context.Background(), experiment.SearchConfig{
			Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMajorityBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.MajorityBound(experiment.MajorityConfig{
			Seed: uint64(i), Trials: 300,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EpsilonSweep(context.Background(), experiment.EpsilonConfig{
			Sweep:    experiment.Sweep{Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i)},
			Epsilons: []float64{0, 0.2, 0.4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CascadeExperiment(context.Background(), experiment.CascadeConfig{
			Ns: []int{500}, Us: [3]int{20, 6, 2}, PriceRatio: 50,
			Trials: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepsExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.StepsExperiment(context.Background(), experiment.Sweep{
			Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBracketAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.BracketAccuracy(context.Background(), experiment.BracketConfig{
			Sweep: experiment.Sweep{Ns: []int{500}, Un: 8, Ue: 3, Trials: 2, Seed: uint64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSnapshot measures the checkpoint writer alone: one op
// replays every snapshot of one recorded service-shaped job (a snapshot
// every 64 paid comparisons plus the phase boundaries) against fresh memos
// built as Session.Run builds them, through a file system that discards
// what it writes.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	for _, c := range []struct {
		name       string
		w          crowdmax.Workload
		n, un, ue  int
		minEntries int
	}{
		// svc-max: about 880 naïve entries, in one memo table sized, as a
		// session sizes it, from the filter's 4·n·un bound.
		{"svc-max", crowdmax.MaxFind(), 100, 4, 2, 769},
		{"svc-topk", crowdmax.TopKWorkload(3), 200, 6, 3, 769},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := crowdmax.RecordSnapshotReplay(b, c.w, c.n, c.un, c.ue, 2015)
			if r.Entries < c.minEntries {
				b.Fatalf("recorded memo has %d entries, want at least %d", r.Entries, c.minEntries)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.Snapshots()), "ns/snapshot")
			b.ReportMetric(float64(r.Entries), "entries")
		})
	}
}

// BenchmarkSessionMaxFind measures one in-process Session.Run(MaxFind) of
// the crowdbench lib-max shape: n = 2000, un = 10, ue = 5, threshold workers
// with hash tie-breaking, the degrade ladder on, no checkpointing. The
// naïve memo work of the filter dominates it.
func BenchmarkSessionMaxFind(b *testing.B) {
	const n, un, ue, seed = 2000, 10, 5, 2015
	cal, err := crowdmax.CalibratedUniform(n, un, ue, crowdmax.NewRand(seed))
	if err != nil {
		b.Fatal(err)
	}
	items := cal.Set.Items()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := crowdmax.NewSession(crowdmax.Config{
			Naive:   &crowdmax.ThresholdWorker{Delta: cal.DeltaN, Tie: crowdmax.HashTie{Seed: seed}},
			Expert:  &crowdmax.ThresholdWorker{Delta: cal.DeltaE, Tie: crowdmax.HashTie{Seed: seed + 1}},
			Un:      un,
			Prices:  crowdmax.Prices{Naive: 1, Expert: 10},
			Rand:    crowdmax.NewRand(seed),
			Degrade: &crowdmax.DegradeConfig{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background(), crowdmax.MaxFind(), items); err != nil {
			b.Fatal(err)
		}
	}
}
