package main

import (
	"context"
	"sync/atomic"
	"time"

	"crowdmax"
)

// libRig runs each op as one in-process Session.Run(MaxFind) with the
// service's session configuration — threshold workers with hash
// tie-breaking, the degrade ladder on — but no checkpointing and no HTTP.
type libRig struct{ w workload }

func (r *libRig) exec(ops []instance, _ int, traced bool) []opRecord {
	recs := make([]opRecord, len(ops))
	for i, in := range ops {
		recs[i] = r.do(in, traced)
	}
	return recs
}

// timedComparator adds the time spent inside each comparison to self.
type timedComparator struct {
	inner crowdmax.Comparator
	self  *atomic.Int64
}

func (c timedComparator) Compare(a, b crowdmax.Item) crowdmax.Item {
	t0 := time.Now()
	w := c.inner.Compare(a, b)
	c.self.Add(int64(time.Since(t0)))
	return w
}

func (r *libRig) do(in instance, traced bool) opRecord {
	var rec opRecord
	var naive crowdmax.Comparator = &crowdmax.ThresholdWorker{Delta: in.dn, Tie: crowdmax.HashTie{Seed: in.seed}}
	var expert crowdmax.Comparator = &crowdmax.ThresholdWorker{Delta: in.de, Tie: crowdmax.HashTie{Seed: in.seed + 1}}
	var self atomic.Int64
	cfg := crowdmax.Config{
		Un:      r.w.un,
		Prices:  crowdmax.Prices{Naive: 1, Expert: 10},
		Rand:    crowdmax.NewRand(in.seed),
		Degrade: &crowdmax.DegradeConfig{},
	}
	if traced {
		naive = timedComparator{naive, &self}
		expert = timedComparator{expert, &self}
		cfg.OnPhase = func(phase string, _ []crowdmax.Item) { rec.phase(phase, time.Now()) }
	}
	cfg.Naive, cfg.Expert = naive, expert
	sess, err := crowdmax.NewSession(cfg)
	if err != nil {
		rec.err = err
		return rec
	}
	items := in.items()
	rec.start = time.Now()
	res, err := sess.Run(context.Background(), crowdmax.MaxFind(), items)
	rec.end = time.Now()
	rec.workerSelf = time.Duration(self.Load())
	if err != nil {
		rec.err = err
		return rec
	}
	rec.ans = answer{
		state:      "done",
		ranks:      []rank{{res.Best.ID, res.Rung, res.Guarantee}},
		naive:      res.NaiveComparisons,
		expert:     res.ExpertComparisons,
		cost:       res.Cost,
		candidates: len(res.Candidates),
	}
	return rec
}
