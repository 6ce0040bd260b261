package main

// serve_mixed: the whole serving stack in this process behind a
// loopback listener (core.New → sim.NewPaced → core.NewFrontend →
// api.NewServer, as E22 assembles it), driven by an open-loop generator
// that mixes writes (instantiate, delete) with reads (task poll, GET
// org, GET vApp). Reads of model state wait for a quantum boundary
// through Paced.Do; writes return 202 at once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// servePaced is the serving pacing: 600 virtual seconds per wall second
// in quarter-second quanta.
var servePaced = sim.PacedConfig{Ratio: 600, QuantumS: 0.25}

// serveParams sizes serve_mixed.
type serveParams struct {
	prepopulate int     // VMs registered before serving (E19-style topology)
	boots       int     // boots timed for setup_s, each in its own process
	baseRate    float64 // requests/s of the fixed-rate phase: the first rung, far below the knee
	baseS       float64 // seconds of the fixed-rate phase
	satS        float64 // seconds of the saturated phase
	rung0       float64 // requests/s of the ladder's first rung
	rungStep    float64 // ratio between neighbouring rungs (at most 1.08)
	stride      int     // rungs per step of the coarse search
	maxRung     int
	stepS       float64 // seconds per ladder step
	p99LimitMS  float64 // a step passes only with p99 at or under this
	drainS      float64 // wall bound on polling accepted tasks to the end
}

// serveParamsFor splits the measured time between the base rate (30%)
// and the saturated phase (40%).
func serveParamsFor(seconds float64, tiny bool) serveParams {
	p := serveParams{
		prepopulate: 100000, boots: 15,
		baseRate: 400, baseS: 0.3 * seconds, satS: 0.4 * seconds,
		rung0: 400, rungStep: 1.04, stride: 8, maxRung: 90, stepS: 0.5,
		p99LimitMS: 25, drainS: 5,
	}
	if tiny {
		p.prepopulate, p.boots = 100, 2
		p.baseRate, p.baseS, p.satS = 100, 0.3, 0.2
		p.rung0, p.maxRung, p.stepS = 100, 6, 0.1
	}
	return p
}

// Request kinds, with the weights the generator draws them by. One
// cycle of the repository's own load generator (api.RunLoad as E22
// drives it: instantiate, poll the task, delete, poll the task) sends one
// instantiate, one delete and 3.0 to 4.6 task polls; counted by route on
// this workload's served cloud at 100 and 300 users, 2-CPU host. Four
// polls are used. That generator sends no org or vApp GET; one of each is
// added per cycle, a tenant looking at its org and at the new vApp. A
// delete with no ready vApp polls a task instead, and a vApp GET with none
// reads the org, so every request targets something that exists.
const (
	kInstantiate = iota
	kDelete
	kTask
	kOrg
	kVApp
)

var kindNames = []string{"instantiate", "delete", "task", "org", "vapp"}
var kindWeights = []float64{1, 1, 4, 1, 1}

// spanHeader carries the client span's ID to the server-side wrapper.
const spanHeader = "X-Perfbench-Span"

// routeOf names the API route a request hits, as the server wrapper
// sees it.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/action/instantiateVAppTemplate"):
		return "instantiate"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/api/vApp/"):
		return "delete"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/task/"):
		return "task"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/org/"):
		return "org"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/vApp/"):
		return "vapp"
	}
	return "other"
}

// tracedHandler wraps api.Server with a server span per request, the
// child of the client span named in spanHeader. Requests without one
// (logins, drain polls, every request outside the traced phase) pass
// straight through.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.tr.newID()
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(id, parent, "server."+routeOf(r), start, h.tr.now())
}

// stack is one booted serving process.
type stack struct {
	drv      *sim.Paced
	fe       *core.Frontend
	srv      *api.Server
	hs       *http.Server
	url      string
	client   *http.Client
	runDone  chan struct{}
	serveErr chan error
	tr       *tracer // set while a traced phase runs

	mu       sync.Mutex
	accepted int64 // 202 responses the client saw
}

// boot assembles and starts the serving stack and logs in one session
// per org in orgs, returning the tokens in the same order.
func boot(p serveParams, seed int64, conns int, handler func(http.Handler) http.Handler, orgs []string) (*stack, []string, error) {
	cfg := closedLoopConfig(p.prepopulate)(seed)
	cfg.Record = false // a served cloud keeps no trace, as E22 runs it
	c, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := c.PrepopulateVMs(p.prepopulate); err != nil {
		return nil, nil, err
	}
	s := &stack{runDone: make(chan struct{}), serveErr: make(chan error, 1)}
	s.drv = sim.NewPaced(c.Env(), servePaced)
	s.fe = core.NewFrontend(c, s.drv, core.FrontendConfig{})
	s.srv = api.NewServer(s.fe)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s.hs = &http.Server{Handler: handler(s.srv), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	go func() {
		s.drv.Run(sim.Forever)
		close(s.runDone)
	}()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   10 * time.Second,
	}
	tokens := make([]string, len(orgs))
	for i, org := range orgs {
		req, _ := http.NewRequest(http.MethodPost, s.url+"/api/sessions", nil)
		req.SetBasicAuth("bench@"+org, "x")
		resp, err := s.client.Do(req)
		if err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("login %s: %w", org, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tokens[i] = resp.Header.Get(api.AuthHeader)
		if resp.StatusCode != http.StatusCreated || tokens[i] == "" {
			s.stop()
			return nil, nil, fmt.Errorf("login %s: status %d", org, resp.StatusCode)
		}
	}
	return s, tokens, nil
}

// stop halts the driver and the server and waits for both goroutines.
func (s *stack) stop() {
	s.drv.Stop()
	<-s.runDone
	_ = s.hs.Close() // Close only reports listener errors; Serve's result is read below
	<-s.serveErr
	s.client.CloseIdleConnections()
}

// call sends one request with an optional JSON body and decodes a JSON
// reply into out (nil discards it). It returns the status code.
func (s *stack) call(method, path, token string, body any, out any, spanID int64) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set(api.AuthHeader, token)
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		s.mu.Lock()
		s.accepted++
		s.mu.Unlock()
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// pendingTask is an accepted operation the client has not yet seen end.
type pendingTask struct {
	id int64
	op int
}

// client is one generator worker: one org, one session, one connection
// at a time. Only its own goroutine touches it while a phase runs.
type client struct {
	s        *stack
	org      string
	token    string
	template string
	kinds    *rng.Stream
	pending  []pendingTask
	ready    []int64 // vApps whose instantiate succeeded and are not deleted
	lastTask int64
	modelErr int64 // tasks that ended in a modelled error
}

// pickKind draws the next request's kind and resolves fallbacks against
// the worker's state.
func (c *client) pickKind() int {
	k := c.kinds.WeightedChoice(kindWeights)
	if k == kDelete && len(c.ready) == 0 {
		k = kTask
	}
	if k == kTask && len(c.pending) == 0 && c.lastTask == 0 {
		k = kOrg
	}
	if k == kVApp && len(c.ready) == 0 {
		k = kOrg
	}
	return k
}

// do sends one request of kind k and reports whether the server answered
// as the API promises.
func (c *client) do(k int, spanID int64) (ok bool, status int, err error) {
	switch k {
	case kInstantiate:
		var t api.TaskJSON
		body := api.InstantiateJSON{Template: c.template, VMs: 1}
		status, err = c.s.call(http.MethodPost, "/api/vdc/provider-vdc/action/instantiateVAppTemplate", c.token, body, &t, spanID)
		if err == nil && status == http.StatusAccepted {
			c.pending = append(c.pending, pendingTask{id: t.ID, op: kInstantiate})
			c.lastTask = t.ID
			return true, status, nil
		}
	case kDelete:
		id := c.ready[0]
		c.ready = c.ready[1:]
		var t api.TaskJSON
		status, err = c.s.call(http.MethodDelete, "/api/vApp/"+strconv.FormatInt(id, 10), c.token, nil, &t, spanID)
		if err == nil && status == http.StatusAccepted {
			c.pending = append(c.pending, pendingTask{id: t.ID, op: kDelete})
			c.lastTask = t.ID
			return true, status, nil
		}
	case kTask:
		id, head := c.lastTask, len(c.pending) > 0
		if head {
			id = c.pending[0].id
		}
		var t api.TaskJSON
		status, err = c.s.call(http.MethodGet, "/api/task/"+strconv.FormatInt(id, 10), c.token, nil, &t, spanID)
		if err == nil && status == http.StatusOK {
			if head && (t.Status == "success" || t.Status == "error") {
				if t.Status == "error" {
					c.modelErr++
				} else if c.pending[0].op == kInstantiate {
					c.ready = append(c.ready, t.VAppID)
				}
				c.pending = c.pending[1:]
			}
			return true, status, nil
		}
	case kOrg:
		status, err = c.s.call(http.MethodGet, "/api/org/"+c.org, c.token, nil, nil, spanID)
		return err == nil && status == http.StatusOK, status, err
	case kVApp:
		id := c.ready[len(c.ready)-1]
		status, err = c.s.call(http.MethodGet, "/api/vApp/"+strconv.FormatInt(id, 10), c.token, nil, nil, spanID)
		return err == nil && status == http.StatusOK, status, err
	}
	return false, status, err
}

// phaseStats is what one fixed-rate phase observed.
type phaseStats struct {
	latMS   []float64 // completion minus due time, every sent request
	lateMS  []float64 // send minus due time
	sent    int64
	failed  int64 // wrong status or transport error
	refused int64 // 503: the server turned the request away
	unsent  int64 // still unsent when the phase ended
	allocs  uint64
	bytes   uint64
}

func (ps *phaseStats) merge(o phaseStats) {
	ps.latMS = append(ps.latMS, o.latMS...)
	ps.lateMS = append(ps.lateMS, o.lateMS...)
	ps.sent += o.sent
	ps.failed += o.failed
	ps.refused += o.refused
	ps.unsent += o.unsent
}

// runPhase offers rate requests per second for dur, open loop: request
// i is due at start+i/rate whether or not earlier ones have finished,
// and its latency counts from when it was due. Requests go to the
// workers round robin. The phase ends limit after its last request was
// due, when even that one can no longer meet the latency limit; a worker
// still behind then leaves the rest unsent.
func runPhase(s *stack, workers []*client, rate float64, dur, limit time.Duration) phaseStats {
	n := int(rate * dur.Seconds())
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur + limit)
	interval := float64(time.Second) / rate
	per := make([]phaseStats, len(workers))
	before := readAllocs()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, st := workers[w], &per[w]
			for i := w; i < n; i += len(workers) {
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if time.Now().After(end) {
					st.unsent += int64((n - i + len(workers) - 1) / len(workers))
					return
				}
				s.send(c, st, due)
			}
		}(w)
	}
	wg.Wait()
	after := readAllocs()
	var out phaseStats
	for _, st := range per {
		out.merge(st)
	}
	out.allocs = after.objs - before.objs
	out.bytes = after.bytes - before.bytes
	return out
}

// send issues one request for worker c, due at due, and records it.
func (s *stack) send(c *client, st *phaseStats, due time.Time) {
	sent, sentNs := time.Now(), s.tr.now()
	k := c.pickKind()
	var spanID int64
	if s.tr != nil {
		spanID = s.tr.newID()
	}
	ok, status, _ := c.do(k, spanID)
	done := time.Now()
	if s.tr != nil {
		s.tr.record(spanID, 0, "client."+kindNames[k], sentNs, s.tr.now())
	}
	st.sent++
	st.latMS = append(st.latMS, float64(done.Sub(due).Nanoseconds())/1e6)
	st.lateMS = append(st.lateMS, float64(sent.Sub(due).Nanoseconds())/1e6)
	switch {
	case status == http.StatusServiceUnavailable:
		st.refused++
	case !ok:
		st.failed++
	}
}

// runSaturated has every worker send its next request as soon as the
// previous one returns, for d, and returns what they saw.
func runSaturated(s *stack, workers []*client, d time.Duration) phaseStats {
	end := time.Now().Add(d)
	per := make([]phaseStats, len(workers))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				s.send(workers[w], &per[w], time.Now())
			}
		}(w)
	}
	wg.Wait()
	var out phaseStats
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// passes applies the knee rule to one ladder step.
func (ps phaseStats) passes(limitMS float64) bool {
	return ps.failed == 0 && ps.refused == 0 && ps.unsent == 0 && percentile(ps.latMS, 99) <= limitMS
}

// drain polls every worker's accepted tasks until they end or the bound
// passes.
func drain(workers []*client, bound time.Duration) (failed int64) {
	deadline := time.Now().Add(bound)
	for _, c := range workers {
		for len(c.pending) > 0 && time.Now().Before(deadline) {
			head := c.pending[0].id
			if ok, _, _ := c.do(kTask, 0); !ok {
				failed++
				break
			}
			if len(c.pending) > 0 && c.pending[0].id == head {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return failed
}

// serveOrgs returns the worker count (nproc, at most 7) and the orgs to
// log in: one per worker, then one for the cross-org check.
func serveOrgs() (int, []string) {
	nw := min(runtime.NumCPU(), 7) // the frontend serves eight orgs
	orgs := make([]string, nw+1)
	for i := range orgs {
		orgs[i] = fmt.Sprintf("org%d", i)
	}
	return nw, orgs
}

// serveBootRep boots the serving stack once, logins included, and stops
// it, reporting the boot time as set-up.
func serveBootRep(p serveParams, seed int64) (repReport, error) {
	runtime.GC()
	nw, orgs := serveOrgs()
	t0 := time.Now()
	s, _, err := boot(p, seed, nw, func(h http.Handler) http.Handler { return h }, orgs)
	if err != nil {
		return repReport{}, err
	}
	r := repReport{SetupS: time.Since(t0).Seconds()}
	s.stop()
	return r, nil
}

// runServe runs serve_mixed: timed boots, the base-rate phase, then the
// saturated phase (untraced) or a traced base-rate phase and the knee
// search (traced), the drain, and the output checks.
func runServe(o opts) (*runResult, error) {
	p := serveParamsFor(o.seconds, o.tiny)
	res := newRunResult()
	nw, orgs := serveOrgs()
	handler := func(h http.Handler) http.Handler { return h }
	var tr *tracer
	if o.trace {
		tr = newTracer()
		handler = func(h http.Handler) http.Handler { return tracedHandler{next: h, tr: tr} }
	}

	// Set-up is timed on boots of their own, each in a fresh child
	// process as mcpserve would start, so the serving process's history
	// does not leak into it. The stack that serves boots afterwards.
	var setups []float64
	for i := 0; i < p.boots; i++ {
		r, err := spawnRep("serve_mixed", o.seed, o, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	s, tokens, err := boot(p, o.seed, nw, handler, orgs)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	template := s.fe.Catalog()[0].Name
	workers := make([]*client, nw)
	for w := range workers {
		workers[w] = &client{s: s, org: orgs[w], token: tokens[w], template: template,
			kinds: rng.Derive(o.seed, "perfbench:serve:"+strconv.Itoa(w))}
	}
	var all phaseStats
	limit := dur(p.p99LimitMS / 1000)
	base := runPhase(s, workers, p.baseRate, dur(p.baseS), limit)
	all.merge(base)
	// The frontend keeps every task, so the heap is measured here, after
	// the phase whose work is fixed, not after the saturated phase, whose
	// work depends on the host.
	res.e2e["peak_heap_mb"] = liveHeapMB()
	res.e2e["setup_s"] = median(setups)
	res.e2e["op_latency_us"] = 1000 * percentile(base.latMS, 50)
	if !base.passes(p.p99LimitMS) {
		res.fail("the base rate %.0f req/s missed the limits: p99 %.2f ms, %d failed, %d refused, %d unsent",
			p.baseRate, percentile(base.latMS, 99), base.failed, base.refused, base.unsent)
	}

	l := res.layer
	var traced phaseStats
	var prof bytes.Buffer
	if o.trace {
		s.tr = tr
		if err := startCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced = runPhase(s, workers, p.baseRate, dur(p.baseS), limit)
		pprof.StopCPUProfile()
		s.tr = nil
		all.merge(traced)
		knee, steps := ladder(s, workers, p, &all)
		l["serve.knee_rps"] = knee
		fmt.Fprintf(os.Stderr, "perfbench: serve_mixed ladder: knee %.0f req/s after %d steps\n", knee, steps)
	} else {
		t0 := time.Now()
		sat := runSaturated(s, workers, dur(p.satS))
		res.e2e["ops_per_s"] = float64(sat.sent) / time.Since(t0).Seconds()
		all.merge(sat)
		if sat.failed+sat.refused > 0 {
			res.fail("the saturated phase had %d failed and %d refused requests", sat.failed, sat.refused)
		}
	}

	failed := drain(workers, dur(p.drainS))
	checkServe(res, s, workers, tokens[len(tokens)-1])
	tasks := s.fe.Tasks()
	var cutoff int64
	var taskLat []float64
	for _, t := range tasks {
		switch {
		case !t.State.Terminal():
			cutoff++
		case t.State == core.TaskSuccess:
			taskLat = append(taskLat, t.Latency())
		}
	}
	checkAccepted(res, s.fe.Stats().Submitted, s.accepted)
	res.attempted = all.sent
	res.failed = all.failed + failed + all.refused + cutoff
	if o.trace {
		tr.do("probe.sim.paced_do_ms", 0, func(int64) { l["sim.paced_do_ms"] = probeDo(s.drv, 400) })
		l["core.frontend_tasks"] = float64(len(tasks))
		l["api.sessions"] = float64(s.srv.Sessions())
		l["model.task_p99_s"] = percentile(taskLat, 99)
		l["model.api_queue_wait_mean_s"] = s.fe.Stats().QueueWaitMeanS
		var modelErr int64
		for _, c := range workers {
			modelErr += c.modelErr
		}
		l["model.task_errors"] = float64(modelErr)
	}
	s.stop()
	lag := s.drv.MaxLag()
	s = nil
	l["ops.refused"] = float64(all.refused)
	l["ops.cutoff"] = float64(cutoff)
	if !o.trace {
		return res, nil
	}

	if err := addCPUShares(res.layer, prof.Bytes()); err != nil {
		return nil, err
	}
	spans := tr.finish()
	untracedP50 := percentile(base.latMS, 50)
	l["trace_overhead_pct"] = 100 * (percentile(traced.latMS, 50) - untracedP50) / untracedP50
	l["serve.p99_ms"] = percentile(base.latMS, 99)
	l["loadgen.late_p99_ms"] = percentile(base.lateMS, 99)
	l["allocs_per_op"] = float64(base.allocs) / float64(max(base.sent, 1))
	l["alloc_mb"] = float64(base.bytes) / (1 << 20)
	l["sim.paced_max_lag_ms"] = float64(lag) / float64(time.Millisecond)
	for _, k := range kindNames {
		lat := byName(spans, "server."+k, false)
		l["api."+k+".server_p50_ms"] = percentile(lat, 50)
		l["api."+k+".server_p99_ms"] = percentile(lat, 99)
	}
	var clientSelf []float64
	for _, k := range kindNames {
		clientSelf = append(clientSelf, byName(spans, "client."+k, true)...)
	}
	l["api.client_p50_ms"] = percentile(clientSelf, 50)
	if err := commonProbes(l, closedLoopConfig(p.prepopulate)(o.seed), true, tr); err != nil {
		return nil, err
	}
	return res, writeSpans(o.outDir, "serve_mixed", o.seed, tr.finish())
}

// ladder finds the knee on the rate ladder rung0·rungStep^k: it climbs
// p.stride rungs per step until one fails, then single rungs from the
// highest pass. A rung is tried twice before it counts as failed. It
// returns the highest passing rung's rate (0 if none) and the number of
// steps run.
func ladder(s *stack, workers []*client, p serveParams, all *phaseStats) (float64, int) {
	steps := 0
	limit := dur(p.p99LimitMS / 1000)
	try := func(k int) bool {
		for attempt := 0; attempt < 2; attempt++ {
			ps := runPhase(s, workers, rungRate(p, k), dur(p.stepS), limit)
			all.merge(ps)
			steps++
			all.failed += drain(workers, dur(p.stepS))
			if ps.passes(p.p99LimitMS) {
				return true
			}
		}
		return false
	}
	best := -1
	for k := 0; k <= p.maxRung && try(k); k += p.stride {
		best = k
	}
	for k := best + 1; best >= 0 && k <= p.maxRung && k < best+p.stride && try(k); k++ {
		best = k
	}
	if best < 0 {
		return 0, steps
	}
	return rungRate(p, best), steps
}

func rungRate(p serveParams, k int) float64 {
	r := p.rung0
	for i := 0; i < k; i++ {
		r *= p.rungStep
	}
	return r
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checkAccepted fails the run unless the frontend accepted exactly the
// operations the client saw answered 202.
func checkAccepted(res *runResult, submitted, accepted int64) {
	if submitted != accepted {
		res.fail("frontend counted %d submissions, the client saw %d accepted", submitted, accepted)
	}
}

// checkServe verifies tenancy isolation: the checker's session, in
// another org, must be refused a task and a vApp of worker 0.
func checkServe(res *runResult, s *stack, workers []*client, checkerToken string) {
	w := workers[0]
	if w.lastTask != 0 {
		status, err := s.call(http.MethodGet, "/api/task/"+strconv.FormatInt(w.lastTask, 10), checkerToken, nil, nil, 0)
		if err != nil || status != http.StatusForbidden {
			res.fail("cross-org task GET answered %d (%v), want 403", status, err)
		}
	} else {
		res.fail("worker 0 accepted no task to check tenancy against")
	}
	if len(w.ready) > 0 {
		id := w.ready[len(w.ready)-1]
		status, err := s.call(http.MethodGet, "/api/vApp/"+strconv.FormatInt(id, 10), checkerToken, nil, nil, 0)
		if err != nil || status != http.StatusNotFound {
			res.fail("cross-org vApp GET answered %d (%v), want 404", status, err)
		}
	}
}
