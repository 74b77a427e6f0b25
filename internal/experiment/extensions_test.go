package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestEpsilonSweepShape(t *testing.T) {
	cfg := EpsilonConfig{
		Sweep:    Sweep{Ns: []int{400}, Un: 8, Ue: 3, Trials: 10, Seed: 21},
		Epsilons: []float64{0, 0.2, 0.4},
	}
	fig, err := EpsilonSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 1 || len(fig.Curves[0].Y) != 3 {
		t.Fatalf("unexpected figure shape: %d curves", len(fig.Curves))
	}
	ys := fig.Curves[0].Y
	// ε = 0 matches the theory (rank within the 2δe guarantee band);
	// ε = 0.4 must be clearly worse — residual errors let the filter and
	// the pivot passes evict the maximum.
	if ys[0] > 5 {
		t.Fatalf("ε=0 rank %.2f too high", ys[0])
	}
	if ys[2] <= ys[0] {
		t.Fatalf("accuracy did not degrade with ε: %.2f (ε=0) vs %.2f (ε=0.4)", ys[0], ys[2])
	}
}

func TestEpsilonSweepValidation(t *testing.T) {
	cfg := EpsilonConfig{
		Sweep:    Sweep{Ns: []int{400}, Un: 8, Ue: 3, Trials: 2, Seed: 21},
		Epsilons: []float64{0.6},
	}
	if _, err := EpsilonSweep(context.Background(), cfg); err == nil {
		t.Fatal("ε ≥ 0.5 accepted")
	}
}

func TestCascadeExperimentShape(t *testing.T) {
	// A strong price hierarchy (1, 50, 2500 — e.g. machine, crowd,
	// professional) is where the middle class pays off: it absorbs the
	// filtering the top class would otherwise be billed for.
	cfg := CascadeConfig{
		Ns:         []int{600, 1200},
		Us:         [3]int{20, 6, 2},
		PriceRatio: 50,
		Trials:     4,
		Seed:       23,
	}
	fig, err := CascadeExperiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Curve{}
	for _, c := range fig.Curves {
		byName[c.Name] = c
	}
	for i := range cfg.Ns {
		// The cascade's purpose: strictly cheaper than the two-level
		// algorithm when the top class is 100× the bottom one, because
		// the middle class absorbs most of the filtering the top class
		// would otherwise pay for.
		if byName["3-level cascade cost"].Y[i] >= byName["2-level (Alg 1) cost"].Y[i] {
			t.Fatalf("n=%d: cascade cost %.0f not below two-level %.0f",
				cfg.Ns[i], byName["3-level cascade cost"].Y[i], byName["2-level (Alg 1) cost"].Y[i])
		}
		// Accuracy must not collapse: both stay in the top handful.
		if byName["3-level cascade rank"].Y[i] > 6 {
			t.Fatalf("n=%d: cascade rank %.2f too high", cfg.Ns[i], byName["3-level cascade rank"].Y[i])
		}
	}
}

func TestCascadeExperimentValidation(t *testing.T) {
	if _, err := CascadeExperiment(context.Background(), CascadeConfig{
		Ns: []int{500}, Us: [3]int{5, 10, 2}, Trials: 1,
	}); err == nil {
		t.Fatal("increasing u accepted")
	}
	if _, err := CascadeExperiment(context.Background(), CascadeConfig{
		Ns: []int{50}, Us: [3]int{50, 10, 3}, Trials: 1,
	}); err == nil {
		t.Fatal("n < 4·u1 accepted")
	}
}

func TestExtensionsRender(t *testing.T) {
	fig, err := EpsilonSweep(context.Background(), EpsilonConfig{
		Sweep:    Sweep{Ns: []int{400}, Un: 6, Ue: 2, Trials: 2, Seed: 29},
		Epsilons: []float64{0, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "epsilon") {
		t.Fatal("epsilon figure missing x label")
	}
}

func TestStepsExperimentShape(t *testing.T) {
	fig, err := StepsExperiment(context.Background(), Sweep{Ns: []int{256, 1024}, Un: 8, Ue: 3, Trials: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Curve{}
	for _, c := range fig.Curves {
		byName[c.Name] = c
	}
	// Bracket: exactly ⌈log2 n⌉ steps.
	if byName["bracket"].Y[0] != 8 || byName["bracket"].Y[1] != 10 {
		t.Fatalf("bracket steps = %v, want [8 10]", byName["bracket"].Y)
	}
	// Alg 1 drains each filter iteration as one wave, so it takes fewer
	// steps than the bracket's ⌈log2 n⌉, and quadrupling n adds at most
	// one filter iteration. 2-MaxFind's average round count is
	// near-constant (a larger pivot sample eliminates more per pass, so it
	// may even dip) but must stay far below its 2·√n worst case.
	for i := range fig.Curves[0].X {
		if byName["Alg 1"].Y[i] >= byName["bracket"].Y[i] {
			t.Fatalf("Alg 1 steps %v not below the bracket's %v", byName["Alg 1"].Y, byName["bracket"].Y)
		}
	}
	if byName["Alg 1"].Y[1] > byName["Alg 1"].Y[0]+1 {
		t.Fatalf("Alg 1 steps grew by more than one from n=256 to 1024: %v", byName["Alg 1"].Y)
	}
	for i, n := range []float64{256, 1024} {
		if byName["2-MaxFind-expert"].Y[i] > 2*math.Sqrt(n)+1 {
			t.Fatalf("2-MaxFind steps %v exceed the 2√n bound", byName["2-MaxFind-expert"].Y)
		}
	}
}

func TestBracketAccuracyShape(t *testing.T) {
	fig, err := BracketAccuracy(context.Background(), BracketConfig{
		Sweep:       Sweep{Ns: []int{512}, Un: 10, Ue: 4, Trials: 15, Seed: 43},
		Repetitions: []int{1, 7},
		ErrorProb:   0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Curve{}
	for _, c := range fig.Curves {
		byName[c.Name] = c
	}
	if len(fig.Curves) != 5 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	// Probabilistic model: repetition helps a lot.
	p1 := byName["bracket rep=1 (probabilistic)"].Y[0]
	p7 := byName["bracket rep=7 (probabilistic)"].Y[0]
	if p7 >= p1 {
		t.Fatalf("repetition did not help under probabilistic model: rep1=%.1f rep7=%.1f", p1, p7)
	}
	if p7 > 3 {
		t.Fatalf("rep=7 probabilistic bracket rank %.1f, want near-perfect", p7)
	}
	// Threshold model: repetition buys (statistically) nothing; both stay
	// clearly worse than Algorithm 1 on the same instances.
	t1 := byName["bracket rep=1 (threshold)"].Y[0]
	t7 := byName["bracket rep=7 (threshold)"].Y[0]
	alg1 := byName["Alg 1 (threshold)"].Y[0]
	if t7 < t1/3 {
		t.Fatalf("repetition helped too much under threshold model: rep1=%.1f rep7=%.1f", t1, t7)
	}
	if alg1 >= t7 || alg1 >= t1 {
		t.Fatalf("Alg 1 (%.1f) should beat the bracket (%.1f / %.1f) under the threshold model", alg1, t1, t7)
	}
}

func TestBracketAccuracyValidation(t *testing.T) {
	base := Sweep{Ns: []int{256}, Un: 8, Ue: 3, Trials: 1, Seed: 1}
	if _, err := BracketAccuracy(context.Background(), BracketConfig{Sweep: base, Repetitions: []int{2}}); err == nil {
		t.Fatal("even repetitions accepted")
	}
	if _, err := BracketAccuracy(context.Background(), BracketConfig{Sweep: base, ErrorProb: 0.7}); err == nil {
		t.Fatal("error probability ≥ 0.5 accepted")
	}
}
