package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// minOps keeps at least ten samples beyond the 90th latency percentile.
const minOps = 100

// maxSlices caps how many consecutive slices of the op list a pass times
// separately. Every end-to-end timing is the median over the slices, so a
// burst of host noise moves one slice, not the result; each slice holds at
// least minOps ops.
const maxSlices = 10

// config is one invocation of the benchmark.
type config struct {
	seed     uint64
	seconds  int
	trace    bool
	spansDir string // where the traced run writes its spans; "" skips them
	ops      int    // op count override; 0 sizes the run as seconds × rate
}

// opRecord is what one op left behind: the answer, client timings and,
// when traced, the per-layer observations.
type opRecord struct {
	ans        answer
	err        error
	job        string    // service job ID
	start, end time.Time // the client's view of the op
	ack        time.Time // submission acknowledged
	running    time.Time // "running" event arrived
	terminal   time.Time // terminal event arrived
	phStart    time.Time // phase boundaries: run start, filter done, run done
	phFilter   time.Time
	phDone     time.Time
	http       httpOp
	ck, store  ioStats
	workerSelf time.Duration // time inside the comparators
}

// phase stamps a Config.OnPhase boundary (observed directly or through
// the job's event stream).
func (r *opRecord) phase(p string, t time.Time) {
	switch p {
	case "start":
		r.phStart = t
	case "phase1":
		r.phFilter = t
	case "done":
		r.phDone = t
	}
}

// rig is a booted system under test.
type rig interface {
	exec(ops []instance, base int, traced bool) []opRecord
	setTimed(on bool)
	close() error
	fillLayers(recs []opRecord)
	fileSpans() []fileSpan
}

func (r *libRig) setTimed(bool)         {}
func (r *libRig) close() error          { return nil }
func (r *libRig) fillLayers([]opRecord) {}
func (r *libRig) fileSpans() []fileSpan { return nil }

// boot starts the system under test and runs the warm-up ops through it,
// each checked against ground truth; it returns the warm-up failures.
func boot(w workload, seed uint64) (rig, []error, error) {
	var r rig = &libRig{w: w}
	if !w.lib {
		s, err := bootService(w)
		if err != nil {
			return nil, nil, err
		}
		r = s
	}
	warm := genOps(w, seed, streamWarm, w.warm)
	var failed []error
	for i, rec := range r.exec(warm, 0, false) {
		if err := check(w, warm[i], rec); err != nil {
			failed = append(failed, fmt.Errorf("warm-up op %d: %w", i, err))
		}
	}
	return r, failed, nil
}

func check(w workload, in instance, rec opRecord) error {
	if rec.err != nil {
		return rec.err
	}
	return verify(w, in, rec.ans)
}

// pass is one timed execution of the op list on one rig.
type pass struct {
	recs   []opRecord
	rates  []float64 // per slice: ops per second
	cpuMS  []float64 // per slice: CPU milliseconds per op
	p50    []float64 // per slice: latency percentiles in milliseconds
	p90    []float64
	alloc  uint64 // bytes allocated
	gcs    uint32
	files  []fileSpan
	failed []error // ground-truth failures, one per failed op
}

// runPass executes ops on r, closes r, and collects the observations.
func runPass(r rig, w workload, ops []instance, traced bool) (pass, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.setTimed(traced)
	var p pass
	slices := max(1, min(maxSlices, len(ops)/minOps))
	for c := 0; c < slices; c++ {
		lo, hi := c*len(ops)/slices, (c+1)*len(ops)/slices
		c0, t0 := cpuTime(), time.Now()
		recs := r.exec(ops[lo:hi], lo, traced)
		wall, cpu := time.Since(t0), cpuTime()-c0
		p.recs = append(p.recs, recs...)
		p.rates = append(p.rates, float64(hi-lo)/wall.Seconds())
		p.cpuMS = append(p.cpuMS, ms(cpu)/float64(hi-lo))
		lat := make([]float64, len(recs))
		for i, rec := range recs {
			lat[i] = ms(rec.end.Sub(rec.start))
		}
		p.p50 = append(p.p50, quantile(lat, 0.5))
		p.p90 = append(p.p90, quantile(lat, 0.9))
	}
	runtime.ReadMemStats(&m1)
	p.alloc, p.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if err := r.close(); err != nil {
		return p, fmt.Errorf("shut down: %w", err)
	}
	r.fillLayers(p.recs)
	p.files = r.fileSpans()
	for i, rec := range p.recs {
		if err := check(w, ops[i], rec); err != nil {
			p.failed = append(p.failed, fmt.Errorf("op %d: %w", i, err))
		}
	}
	return p, nil
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	passes            []passSummary
	info              []string // lines printed before the result
}

// passSummary is what must repeat exactly when a pass is repeated.
type passSummary struct {
	Ops    int                `json:"ops"`
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

type metric struct {
	name, unit string
	value      float64
}

// measure runs workload w: set up setupRepeats times, then one untraced
// pass over the op list — and, traced, a second pass over the same list
// with every observer on.
func measure(w workload, cfg config) (*report, error) {
	n := cfg.ops
	if n == 0 {
		n = int(math.Round(float64(cfg.seconds) * w.rate))
		if cfg.trace {
			n /= 2 // the traced run executes the op list twice
		}
		n = max(n, minOps)
	}

	rep := &report{correct: true, info: []string{hostLine(w, cfg.seed)}}
	var r rig
	var ops []instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		ops = genOps(w, cfg.seed, streamMeasured, n)
		var err error
		var failed []error
		if r, failed, err = boot(w, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.addChecked(w.warm, failed)
		if i < setupRepeats-1 {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("shut down: %w", err)
			}
		}
	}
	plain, err := runPass(r, w, ops, false)
	if err != nil {
		return nil, err
	}
	rep.addPass(plain)
	if !cfg.trace {
		rep.metrics = endToEnd(plain, setups)
		return rep, nil
	}

	var failed []error
	if r, failed, err = boot(w, cfg.seed); err != nil {
		return nil, err
	}
	rep.addChecked(w.warm, failed)
	traced, err := runPass(r, w, ops, true)
	if err != nil {
		return nil, err
	}
	rep.addPass(traced)
	if a, b := digest(answers(plain)), digest(answers(traced)); a != b {
		rep.correct = false
		rep.info = append(rep.info, fmt.Sprintf("FAIL answers differ between the untraced and traced pass: %016x vs %016x", a, b))
	}
	rep.metrics = perLayer(plain, traced)
	if cfg.spansDir != "" {
		if err := writeSpans(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed)), traced); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// addChecked counts ops checked against ground truth and their failures.
func (rep *report) addChecked(ops int, failed []error) {
	rep.attempted += ops
	rep.failed += len(failed)
	rep.correct = rep.correct && len(failed) == 0
	for i, err := range failed {
		if i == 5 {
			rep.info = append(rep.info, fmt.Sprintf("FAIL … and %d more", len(failed)-i))
			break
		}
		rep.info = append(rep.info, "FAIL "+err.Error())
	}
}

// addPass folds one pass into the report's verdict and info lines.
func (rep *report) addPass(p pass) {
	rep.addChecked(len(p.recs), p.failed)
	sum := passSummary{Ops: len(p.recs), Digest: fmt.Sprintf("%016x", digest(answers(p))), Counts: countsOf(p)}
	rep.passes = append(rep.passes, sum)
	line, _ := json.Marshal(sum) // strings and numbers always encode
	rep.info = append(rep.info, "pass "+string(line))
}

func answers(p pass) []answer {
	out := make([]answer, len(p.recs))
	for i, r := range p.recs {
		out[i] = r.ans
	}
	return out
}

// countsOf returns the pass's exact counts per op: the crowd bill and the
// device work. They depend only on the op list, never on timing.
func countsOf(p pass) map[string]float64 {
	var naive, expert, cand int64
	var cost float64
	var ck, st ioStats
	for _, r := range p.recs {
		naive += r.ans.naive
		expert += r.ans.expert
		cand += int64(r.ans.candidates)
		cost += r.ans.cost
		ck.add(r.ck)
		st.add(r.store)
	}
	ops := float64(len(p.recs))
	return map[string]float64{
		"cost_per_op":              cost / ops,
		"core.naive_cmp_per_op":    float64(naive) / ops,
		"core.expert_cmp_per_op":   float64(expert) / ops,
		"core.candidates_per_op":   float64(cand) / ops,
		"checkpoint.writes_per_op": float64(ck.writes) / ops,
		"checkpoint.kb_per_op":     float64(ck.bytes) / 1024 / ops,
		"store.writes_per_op":      float64(st.writes) / ops,
		"store.kb_per_op":          float64(st.bytes) / 1024 / ops,
		"storage.syncs_per_op":     float64(ck.syncs+st.syncs) / ops,
		"storage.write_kb_per_op":  float64(ck.bytes+st.bytes) / 1024 / ops,
	}
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced pass.
func endToEnd(p pass, setups []float64) []metric {
	ops := float64(len(p.recs))
	c := countsOf(p)
	return []metric{
		{"setup_s", "s", quantile(setups, 0.5)},
		{"ops_per_s", "1/s", quantile(p.rates, 0.5)},
		{"lat_p50_ms", "ms", quantile(p.p50, 0.5)},
		{"lat_p90_ms", "ms", quantile(p.p90, 0.5)},
		{"cpu_ms_per_op", "ms", quantile(p.cpuMS, 0.5)},
		{"done_share", "ratio", (ops - float64(len(p.failed))) / ops},
		{"cost_per_op", "cost", c["cost_per_op"]},
		{"rss_peak_mb", "MB", maxRSSMB()},
	}
}

// perLayer computes the per-layer metrics from the traced pass, the
// runtime's from the untraced one (tracing allocates), and the tracing
// overhead as traced ÷ untraced.
func perLayer(plain, traced pass) []metric {
	ops := float64(len(traced.recs))
	var submit, client, queue, run, filter, phase2 []float64
	var requests int
	var engine, self time.Duration
	var ck, st ioStats
	for _, r := range traced.recs {
		requests += r.http.requests
		if r.http.requests > 0 {
			submit = append(submit, ms(r.http.submit))
			client = append(client, ms(r.ack.Sub(r.start)-r.http.submit))
		}
		if !r.running.IsZero() {
			queue = append(queue, ms(r.running.Sub(r.ack)))
			run = append(run, ms(r.terminal.Sub(r.running)))
		}
		if !r.phStart.IsZero() && !r.phFilter.IsZero() && !r.phDone.IsZero() {
			filter = append(filter, ms(r.phFilter.Sub(r.phStart)))
			phase2 = append(phase2, ms(r.phDone.Sub(r.phFilter)))
		}
		if r.workerSelf > 0 {
			engine += r.end.Sub(r.start) - r.workerSelf
			self += r.workerSelf
		}
		ck.add(r.ck)
		st.add(r.store)
	}
	c := countsOf(traced)
	pops := float64(len(plain.recs))
	return []metric{
		{"http.submit_ms_p50", "ms", quantile(submit, 0.5)},
		{"http.client_ms_p50", "ms", quantile(client, 0.5)},
		{"http.requests_per_op", "count", float64(requests) / ops},
		{"service.queue_ms_p50", "ms", quantile(queue, 0.5)},
		{"service.run_ms_p50", "ms", quantile(run, 0.5)},
		{"service.run_ms_p90", "ms", quantile(run, 0.9)},
		{"checkpoint.writes_per_op", "count", c["checkpoint.writes_per_op"]},
		{"checkpoint.kb_per_op", "KiB", c["checkpoint.kb_per_op"]},
		{"checkpoint.io_ms_per_op", "ms", ms(ck.io) / ops},
		{"store.writes_per_op", "count", c["store.writes_per_op"]},
		{"store.kb_per_op", "KiB", c["store.kb_per_op"]},
		{"store.io_ms_per_op", "ms", ms(st.io) / ops},
		{"storage.syncs_per_op", "count", c["storage.syncs_per_op"]},
		{"storage.write_kb_per_op", "KiB", c["storage.write_kb_per_op"]},
		{"core.filter_ms_p50", "ms", quantile(filter, 0.5)},
		{"core.phase2_ms_p50", "ms", quantile(phase2, 0.5)},
		{"core.engine_ms_per_op", "ms", ms(engine) / ops},
		{"core.naive_cmp_per_op", "count", c["core.naive_cmp_per_op"]},
		{"core.expert_cmp_per_op", "count", c["core.expert_cmp_per_op"]},
		{"core.candidates_per_op", "count", c["core.candidates_per_op"]},
		{"worker.self_ms_per_op", "ms", ms(self) / ops},
		{"runtime.alloc_kb_per_op", "KiB", float64(plain.alloc) / 1024 / pops},
		{"runtime.gc_per_op", "count", float64(plain.gcs) / pops},
		{"trace.cpu_ratio", "ratio", quantile(traced.cpuMS, 0.5) / quantile(plain.cpuMS, 0.5)},
		{"trace.ops_ratio", "ratio", quantile(traced.rates, 0.5) / quantile(plain.rates, 0.5)},
	}
}

// span is one traced interval; spans of one op share its op index, and
// parent names the span that contains it (-1 for the op's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(path string, p pass) error {
	if len(p.recs) == 0 {
		return nil
	}
	epoch := p.recs[0].start
	for _, r := range p.recs {
		if r.start.Before(epoch) {
			epoch = r.start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }
	var spans []span
	add := func(parent, op int, layer string, a, b time.Time) int {
		if a.IsZero() || b.IsZero() {
			return parent
		}
		spans = append(spans, span{len(spans), parent, op, layer, us(a), us(b)})
		return len(spans) - 1
	}
	roots := make(map[string]int, len(p.recs))
	for i, r := range p.recs {
		root := add(-1, i, "op", r.start, r.end)
		roots[r.job] = root
		post := add(root, i, "http.post", r.start, r.ack)
		add(post, i, "http.submit", r.http.submitStart, r.http.submitEnd)
		add(root, i, "service.queue", r.ack, r.running)
		run := add(root, i, "service.run", r.running, r.terminal)
		add(run, i, "core.filter", r.phStart, r.phFilter)
		add(run, i, "core.phase2", r.phFilter, r.phDone)
	}
	for _, f := range p.files {
		root, ok := roots[f.key.job]
		if !ok {
			continue // a warm-up job's write
		}
		layer := "store.write"
		if f.key.layer == "ck" {
			layer = "checkpoint.write"
		}
		add(root, spans[root].Op, layer, f.start, f.end)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of xs; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
