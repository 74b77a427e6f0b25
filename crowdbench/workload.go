package main

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"

	"crowdmax"
)

// workload is one fixed traffic mix. A run executes a fixed number of ops
// (seconds × rate), never "as many as fit in the time": the count, not the
// clock, ends a run, so the work done per run never depends on timing.
type workload struct {
	name    string
	mode    string // "max" or "topk"
	lib     bool   // drive crowdmax.Session.Run in-process instead of the HTTP service
	n       int    // items per instance
	un, ue  int    // the naïve and expert classes' u(n)
	k       int    // ranks per top-k job
	clients int    // closed-loop clients
	rate    float64
	warm    int // warm-up ops per set-up
}

// The workloads; README.md says why each was chosen. rate is the op rate a
// 2-core x86 VM sustains untraced; it sizes a run to about --seconds there.
var workloads = []workload{
	{name: "svc-max", mode: "max", n: 100, un: 4, ue: 2, clients: 2, rate: 280, warm: 60},
	{name: "svc-topk", mode: "topk", n: 200, un: 6, ue: 3, k: 3, clients: 2, rate: 36, warm: 16},
	{name: "lib-max", mode: "max", lib: true, n: 2000, un: 10, ue: 5, clients: 1, rate: 40, warm: 12},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one op's generated input with its ground truth.
type instance struct {
	seed   uint64 // the job's seed
	values []float64
	dn, de float64 // the worker thresholds that make u(n) = un and ue
	body   []byte  // the POST /v1/jobs body (service workloads)
}

// Streams of the input generator: measured ops and warm-up ops never share
// an instance.
const (
	streamMeasured = 0
	streamWarm     = 1
)

// genOps derives count instances of w from the workload seed.
func genOps(w workload, seed uint64, stream uint64, count int) []instance {
	out := make([]instance, count)
	for i := range out {
		out[i] = genInstance(w, rand.New(rand.NewPCG(seed, stream<<32|uint64(i))))
	}
	return out
}

// genInstance draws one instance: n uniform values in [0, 1) and a job
// seed. An instance is redrawn from the same stream when its thresholds
// cannot pin u(n) exactly (two values equally far from the maximum), or,
// for top-k, when un is not a valid filter parameter for every rank.
func genInstance(w workload, r *rand.Rand) instance {
	for {
		in := instance{seed: r.Uint64(), values: make([]float64, w.n)}
		for i := range in.values {
			in.values[i] = r.Float64()
		}
		set := crowdmax.NewSetItems(in.items())
		var err1, err2 error
		in.dn, err1 = set.DeltaForU(w.un)
		in.de, err2 = set.DeltaForU(w.ue)
		if err1 != nil || err2 != nil {
			continue
		}
		if w.mode == "topk" && !uBoundsTopK(in.values, in.dn, w.un, w.k) {
			continue
		}
		if !w.lib {
			in.body = jobBody(w, in)
		}
		return in
	}
}

// uBoundsTopK reports whether u bounds, for each of the k largest values,
// how many values lie within dn below it (itself included). Top-k labels
// its ranks 2δe only under that precondition (core.TopK's U): the maximum
// of what remains after any earlier ranks are removed is one of the true
// top k, and its neighbourhood in the remainder is no larger than in the
// full input, so the precondition then holds in every round.
func uBoundsTopK(values []float64, dn float64, u, k int) bool {
	sorted := slices.Clone(values)
	slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	for _, top := range sorted[:k] {
		near := 0
		for _, v := range values {
			if v <= top && top-v <= dn {
				near++
			}
		}
		if near > u {
			return false
		}
	}
	return true
}

// items returns the instance as crowdmax items, ID i for value i. Built on
// demand: kept for every op, items (which hold pointers) would make the
// collector scan the whole op list on every cycle, a cost of the benchmark
// rather than of the program.
func (in instance) items() []crowdmax.Item {
	items := make([]crowdmax.Item, len(in.values))
	for i, v := range in.values {
		items[i] = crowdmax.Item{ID: i, Value: v}
	}
	return items
}

// jobBody encodes the job submission: explicit items, so the service runs
// exactly the generated instance.
func jobBody(w workload, in instance) []byte {
	type item struct {
		Value float64 `json:"value"`
	}
	spec := struct {
		Tenant string `json:"tenant"`
		Mode   string `json:"mode"`
		K      int    `json:"k,omitempty"`
		Seed   uint64 `json:"seed"`
		Un     int    `json:"un"`
		Ue     int    `json:"ue"`
		Items  []item `json:"items"`
	}{Tenant: "bench", Mode: w.mode, Seed: in.seed, Un: w.un, Ue: w.ue}
	if w.mode == "topk" {
		spec.K = w.k
	}
	spec.Items = make([]item, len(in.values))
	for i, v := range in.values {
		spec.Items[i] = item{v}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return b
}

// rank is one ranked answer: the element and the label its rung attached.
type rank struct {
	id        int
	rung      string
	guarantee crowdmax.Guarantee
}

// answer is one op's outcome as the program reported it.
type answer struct {
	state         string // "done" unless the op failed
	ranks         []rank // one for max jobs, k for top-k jobs
	naive, expert int64
	cost          float64
	candidates    int
}

// labelBound is the distance a label promises between the answer and the
// true maximum, in terms of the instance's worker thresholds. Labels that
// bound nothing about the full input (a shrunk subset, best-so-far) cannot
// be verified and never count as done.
func labelBound(g crowdmax.Guarantee, dn, de float64) (float64, bool) {
	switch g {
	case crowdmax.Guarantee2DeltaE:
		return 2 * de, true
	case crowdmax.Guarantee3DeltaEWHP:
		return 3 * de, true
	case crowdmax.GuaranteeDeltaN:
		return dn, true
	}
	return 0, false
}

// verify checks an answer against the instance's ground truth: every rank
// carries a label its rung can deliver, and lies within that label's bound
// of the true maximum of the input minus the better ranks.
func verify(w workload, in instance, a answer) error {
	if a.state != "done" {
		return fmt.Errorf("state %q", a.state)
	}
	want := 1
	if w.mode == "topk" {
		want = w.k
	}
	if len(a.ranks) != want {
		return fmt.Errorf("%d ranks, want %d", len(a.ranks), want)
	}
	if a.cost != float64(a.naive)+10*float64(a.expert) {
		return fmt.Errorf("bill naive=%d expert=%d cost=%g does not add up", a.naive, a.expert, a.cost)
	}
	taken := make(map[int]bool, len(a.ranks))
	for i, r := range a.ranks {
		if r.id < 0 || r.id >= len(in.values) || taken[r.id] {
			return fmt.Errorf("rank %d: bad or repeated id %d", i+1, r.id)
		}
		strongest, ok := crowdmax.StrongestGuaranteeFor(r.rung)
		if !ok || r.guarantee.Strength() > strongest.Strength() {
			return fmt.Errorf("rank %d: label %q is not one rung %q can deliver", i+1, r.guarantee, r.rung)
		}
		bound, ok := labelBound(r.guarantee, in.dn, in.de)
		if !ok {
			return fmt.Errorf("rank %d: label %q bounds nothing about the input", i+1, r.guarantee)
		}
		best := math.Inf(-1)
		for id, v := range in.values {
			if !taken[id] {
				best = max(best, v)
			}
		}
		if d := best - in.values[r.id]; d > bound {
			return fmt.Errorf("rank %d: answer is %g below the maximum, label %q allows %g", i+1, d, r.guarantee, bound)
		}
		taken[r.id] = true
	}
	return nil
}

// digest folds the answers into one FNV-1a hash over the answered IDs and
// the paid counts, so two runs can be compared bit for bit.
func digest(answers []answer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, a := range answers {
		for _, r := range a.ranks {
			put(int64(r.id))
		}
		put(a.naive)
		put(a.expert)
	}
	return h.Sum64()
}
