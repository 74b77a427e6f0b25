package experiment

import (
	"context"
	"fmt"

	"crowdmax/internal/core"
	"crowdmax/internal/cost"
	"crowdmax/internal/parallel"
	"crowdmax/internal/stats"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// StepsExperiment measures the *time* complexity of the approaches under
// the paper's execution model (Section 3, following Venetis et al.): the
// number of logical steps — batch rounds submitted to the platform — as a
// function of n. Comparisons within a tournament round are independent and
// run in one batch, so logical steps capture wall-clock time when the
// worker pool is large.
//
// Expected shapes: the single-elimination bracket takes exactly ⌈log2 n⌉
// steps; Algorithm 1's filter takes one step per iteration, because the
// comparison scheduler drains all groups of an iteration as one wave, so its
// step count grows with the number of iterations, not of groups; 2-MaxFind
// takes two steps per pivot round.
func StepsExperiment(ctx context.Context, s Sweep) (Figure, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title:  fmt.Sprintf("Logical steps (un=%d, ue=%d)", s.Un, s.Ue),
		XLabel: "n",
		YLabel: "logical steps",
	}
	type series struct {
		name string
		ys   []float64
	}
	curves := []series{
		{name: "Alg 1"}, {name: "2-MaxFind-expert"}, {name: "bracket"},
	}
	// Cells are (n, trial) pairs; each measures all three approaches.
	steps := make([][3]float64, len(s.Ns)*s.Trials)
	if err := parallel.For(s.Workers, len(steps), func(c int) error {
		ni, trial := c/s.Trials, c%s.Trials
		cal, r, err := s.instance(s.Ns[ni], trial)
		if err != nil {
			return err
		}
		items := cal.Set.Items()

		l := cost.NewLedger()
		nw := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("a")}, R: r.Child("a")}
		ew := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r.Child("b")}, R: r.Child("b")}
		no := tournament.NewOracle(nw, worker.Naive, l, nil)
		eo := tournament.NewOracle(ew, worker.Expert, l, nil)
		if _, err := core.FindMax(ctx, items, no, eo, core.FindMaxOptions{Un: s.Un}); err != nil {
			return err
		}
		steps[c][0] = float64(l.Steps())

		l2 := cost.NewLedger()
		ew2 := &worker.Threshold{Delta: cal.DeltaE, Tie: worker.RandomTie{R: r.Child("c")}, R: r.Child("c")}
		eo2 := tournament.NewOracle(ew2, worker.Expert, l2, nil)
		if _, err := core.TwoMaxFind(ctx, items, eo2); err != nil {
			return err
		}
		steps[c][1] = float64(l2.Steps())

		l3 := cost.NewLedger()
		nw3 := &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("d")}, R: r.Child("d")}
		no3 := tournament.NewOracle(nw3, worker.Naive, l3, nil)
		if _, err := core.TournamentMax(ctx, items, no3, core.BracketOptions{}); err != nil {
			return err
		}
		steps[c][2] = float64(l3.Steps())
		return nil
	}); err != nil {
		return Figure{}, err
	}
	for ni := range s.Ns {
		sums := make([]stats.Summary, 3)
		for trial := 0; trial < s.Trials; trial++ {
			cell := steps[ni*s.Trials+trial]
			for i := range sums {
				sums[i].Add(cell[i])
			}
		}
		for i := range curves {
			curves[i].ys = append(curves[i].ys, sums[i].Mean())
		}
	}
	xs := nsToFloats(s.Ns)
	for _, c := range curves {
		fig.Curves = append(fig.Curves, Curve{Name: c.name, X: xs, Y: c.ys})
	}
	return fig, nil
}
