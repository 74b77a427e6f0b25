package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdmax"
	"crowdmax/internal/service"
)

// stateDir is the service's state directory inside the in-memory FS.
const stateDir = "/state"

// opHeader carries the benchmark's op index on every request, so the
// middleware can attribute server-side handler time to the op.
const opHeader = "X-Bench-Op"

// svcRig is a maxcrowdd server with default options over an in-memory
// state directory, served on a loopback port, and the keep-alive client
// that drives it.
type svcRig struct {
	w      workload
	fs     *memFS
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	mw     *httpLayer
}

func bootService(w workload) (*svcRig, error) {
	fs := newMemFS(stateDir)
	srv, err := service.NewServer(service.Options{Dir: stateDir, FS: fs})
	if err != nil {
		return nil, fmt.Errorf("boot server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background()) //nolint:errcheck // nothing was admitted
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &svcRig{
		w:      w,
		fs:     fs,
		srv:    srv,
		mw:     &httpLayer{next: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients,
			DisableCompression:  true,
		}},
	}
	r.hs = &http.Server{Handler: r.mw}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the HTTP server and drains the service, so every write of
// every job has landed when it returns.
func (r *svcRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r.client.CloseIdleConnections()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := r.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// setTimed switches the server-side observers on or off.
func (r *svcRig) setTimed(on bool) {
	r.fs.setTimed(on)
	r.mw.timed.Store(on)
}

// exec runs the ops through w.clients closed-loop clients: each submits
// its next job only once the previous one's answer is in.
func (r *svcRig) exec(ops []instance, base int, traced bool) []opRecord {
	recs := make([]opRecord, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				recs[i] = r.do(base+i, ops[i], traced)
			}
		}()
	}
	wg.Wait()
	return recs
}

// fillLayers attributes the server-side observations to the ops. Call it
// after close: a job's last record write lands after its answer is served.
func (r *svcRig) fillLayers(recs []opRecord) {
	for i := range recs {
		rec := &recs[i]
		if rec.job == "" {
			continue
		}
		rec.ck = r.fs.jobStats("ck", rec.job)
		rec.store = r.fs.jobStats("jobs", rec.job)
		rec.http = r.mw.op(i)
	}
}

// fileSpans returns the recorded file writes keyed by job.
func (r *svcRig) fileSpans() []fileSpan { return r.fs.takeSpans() }

// do runs one op: submit, follow the job's event stream to its end, fetch
// the result.
func (r *svcRig) do(i int, in instance, traced bool) opRecord {
	rec := opRecord{start: time.Now()}
	id, err := r.submit(i, in.body)
	rec.ack = time.Now()
	if err != nil {
		rec.err = err
		rec.end = rec.ack
		return rec
	}
	rec.job = id
	if err := r.follow(i, id, traced, &rec); err != nil {
		rec.err = err
	} else {
		rec.ans, rec.err = r.result(i, id)
	}
	rec.end = time.Now()
	return rec
}

func (r *svcRig) request(method, path string, i int, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(opHeader, strconv.Itoa(i))
	return r.client.Do(req)
}

func (r *svcRig) submit(i int, body []byte) (string, error) {
	resp, err := r.request(http.MethodPost, "/v1/jobs", i, body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if derr != nil {
		return "", fmt.Errorf("submit: %w", derr)
	}
	return out.ID, nil
}

// follow reads the job's event stream until the server closes it at the
// job's terminal state. Traced, it stamps the arrival of the lifecycle and
// phase events.
func (r *svcRig) follow(i int, id string, traced bool, rec *opRecord) error {
	resp, err := r.request(http.MethodGet, "/v1/jobs/"+id+"/events?follow=1", i, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	if !traced {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		var ev struct {
			Ev    string `json:"ev"`
			State string `json:"state"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Ev == "job" && ev.State == "running":
			rec.running = now
		case ev.Ev == "job" && ev.State != "queued":
			rec.terminal = now
		case ev.Ev == "phase":
			rec.phase(ev.Phase, now)
		}
	}
	return sc.Err()
}

func (r *svcRig) result(i int, id string) (answer, error) {
	resp, err := r.request(http.MethodGet, "/v1/jobs/"+id, i, nil)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	var v struct {
		State  string `json:"state"`
		Result *struct {
			BestID     int    `json:"best_id"`
			Candidates int    `json:"candidates"`
			Rung       string `json:"rung"`
			Guarantee  string `json:"guarantee"`
			Ranked     []struct {
				ID        int    `json:"id"`
				Rung      string `json:"rung"`
				Guarantee string `json:"guarantee"`
			} `json:"ranked"`
			Naive  int64   `json:"naive_comparisons"`
			Expert int64   `json:"expert_comparisons"`
			Cost   float64 `json:"cost"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return answer{}, fmt.Errorf("job: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	a := answer{state: v.State}
	if res := v.Result; res != nil {
		a.naive, a.expert, a.cost, a.candidates = res.Naive, res.Expert, res.Cost, res.Candidates
		if r.w.mode == "topk" {
			for _, rr := range res.Ranked {
				a.ranks = append(a.ranks, rank{rr.ID, rr.Rung, crowdmax.Guarantee(rr.Guarantee)})
			}
		} else {
			a.ranks = []rank{{res.BestID, res.Rung, crowdmax.Guarantee(res.Guarantee)}}
		}
	}
	return a, nil
}

// httpLayer is middleware around the service's handler: when timed, it
// counts each op's requests and times its submission handler.
type httpLayer struct {
	next  http.Handler
	timed atomic.Bool
	mu    sync.Mutex
	ops   map[int]*httpOp
}

type httpOp struct {
	requests               int
	submit                 time.Duration
	submitStart, submitEnd time.Time
}

func (h *httpLayer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !h.timed.Load() {
		h.next.ServeHTTP(w, req)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, req)
	t1 := time.Now()
	i, err := strconv.Atoi(req.Header.Get(opHeader))
	if err != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ops == nil {
		h.ops = make(map[int]*httpOp)
	}
	op := h.ops[i]
	if op == nil {
		op = &httpOp{}
		h.ops[i] = op
	}
	op.requests++
	if req.Method == http.MethodPost {
		op.submit, op.submitStart, op.submitEnd = t1.Sub(t0), t0, t1
	}
}

func (h *httpLayer) op(i int) httpOp {
	h.mu.Lock()
	defer h.mu.Unlock()
	if op := h.ops[i]; op != nil {
		return *op
	}
	return httpOp{}
}
