package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cloudmcp/internal/core"
	"cloudmcp/internal/sim"
)

// startServer boots a small cloud under a free-running paced driver and
// serves it over httptest. The driver is stopped and joined in cleanup.
func startServer(t *testing.T, seed int64) (*httptest.Server, *Server) {
	t.Helper()
	c, err := core.New(core.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.NewPaced(c.Env(), sim.PacedConfig{Ratio: 0, QuantumS: 0.5})
	srv := NewServer(core.NewFrontend(c, drv, core.FrontendConfig{}))
	done := make(chan struct{})
	go func() {
		drv.Run(sim.Forever)
		close(done)
	}()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		drv.Stop()
		<-done
	})
	return ts, srv
}

// login creates a session and returns its token.
func login(t *testing.T, base, user string) string {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/api/sessions", nil)
	req.SetBasicAuth(user, "secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("login %s: status %d", user, resp.StatusCode)
	}
	tok := resp.Header.Get(AuthHeader)
	if tok == "" {
		t.Fatal("no auth token returned")
	}
	return tok
}

// do runs an authenticated request and decodes the JSON body into out
// (skipped when out is nil), returning the status code.
func do(t *testing.T, method, url, token string, body []byte, out any) int {
	t.Helper()
	var req *http.Request
	if body != nil {
		req, _ = http.NewRequest(method, url, bytes.NewReader(body))
	} else {
		req, _ = http.NewRequest(method, url, nil)
	}
	if token != "" {
		req.Header.Set(AuthHeader, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp)
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollTask polls a task href until it reaches a terminal state.
func pollTask(t *testing.T, base, token string, id int64) TaskJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var task TaskJSON
		if code := do(t, "GET", base+taskHref(id), token, nil, &task); code != http.StatusOK {
			t.Fatalf("poll task %d: status %d", id, code)
		}
		if task.Status == "success" || task.Status == "error" {
			return task
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("task %d never resolved", id)
	return TaskJSON{}
}

func TestSessionLifecycle(t *testing.T) {
	ts, srv := startServer(t, 1)
	// Bad credentials shapes.
	req, _ := http.NewRequest("POST", ts.URL+"/api/sessions", nil)
	resp, _ := http.DefaultClient.Do(req)
	drainClose(resp)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no-auth login: %d", resp.StatusCode)
	}
	req, _ = http.NewRequest("POST", ts.URL+"/api/sessions", nil)
	req.SetBasicAuth("alice@orgX", "pw")
	resp, _ = http.DefaultClient.Do(req)
	drainClose(resp)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unknown-org login: %d", resp.StatusCode)
	}

	tok := login(t, ts.URL, "alice@org3")
	var sess SessionJSON
	if code := do(t, "GET", ts.URL+"/api/session", tok, nil, &sess); code != http.StatusOK {
		t.Fatalf("get session: %d", code)
	}
	if sess.User != "alice" || sess.Org != "org3" {
		t.Fatalf("session: %+v", sess)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d", srv.Sessions())
	}
	if code := do(t, "DELETE", ts.URL+"/api/sessions", tok, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete session: %d", code)
	}
	if code := do(t, "GET", ts.URL+"/api/session", tok, nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("stale token accepted: %d", code)
	}
}

func TestOrgScoping(t *testing.T) {
	ts, _ := startServer(t, 1)
	tok := login(t, ts.URL, "bob@org1")

	var orgs []OrgRefJSON
	if code := do(t, "GET", ts.URL+"/api/org", tok, nil, &orgs); code != http.StatusOK {
		t.Fatalf("list orgs: %d", code)
	}
	if len(orgs) != 1 || orgs[0].Name != "org1" {
		t.Fatalf("org listing leaked tenants: %+v", orgs)
	}
	var org OrgJSON
	if code := do(t, "GET", ts.URL+orgHref("org1"), tok, nil, &org); code != http.StatusOK {
		t.Fatalf("get org: %d", code)
	}
	if org.Name != "org1" {
		t.Fatalf("org: %+v", org)
	}
	if code := do(t, "GET", ts.URL+orgHref("org2"), tok, nil, nil); code != http.StatusForbidden {
		t.Fatalf("foreign org visible: %d", code)
	}
	var vdc VDCJSON
	if code := do(t, "GET", ts.URL+vdcHref(), tok, nil, &vdc); code != http.StatusOK {
		t.Fatalf("get vdc: %d", code)
	}
	if vdc.Hosts == 0 || len(vdc.Templates) == 0 {
		t.Fatalf("vdc view empty: %+v", vdc)
	}
}

func TestProvisionFlow(t *testing.T) {
	ts, _ := startServer(t, 1)
	tok := login(t, ts.URL, "carol@org0")

	body, _ := json.Marshal(InstantiateJSON{Template: "tpl00", VMs: 2, PowerOn: true})
	var accepted TaskJSON
	code := do(t, "POST", ts.URL+"/api/vdc/provider-vdc/action/instantiateVAppTemplate", tok, body, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("instantiate: status %d", code)
	}
	if accepted.Href != taskHref(accepted.ID) {
		t.Fatalf("task href: %+v", accepted)
	}
	task := pollTask(t, ts.URL, tok, accepted.ID)
	if task.Status != "success" || task.VAppID == 0 {
		t.Fatalf("instantiate task: %+v", task)
	}
	if task.LatencyS <= 0 || task.EndS <= task.StartS {
		t.Fatalf("task latency accounting: %+v", task)
	}

	var vapp VAppJSON
	if code := do(t, "GET", ts.URL+"/api/vApp/"+itoa(task.VAppID), tok, nil, &vapp); code != http.StatusOK {
		t.Fatalf("get vApp: %d", code)
	}
	if vapp.VMs != 2 || vapp.PoweredOn != 2 {
		t.Fatalf("vApp view: %+v", vapp)
	}

	// Another tenant can see neither the vApp nor the task.
	tok2 := login(t, ts.URL, "dave@org5")
	if code := do(t, "GET", ts.URL+"/api/vApp/"+itoa(task.VAppID), tok2, nil, nil); code != http.StatusNotFound {
		t.Fatalf("foreign vApp visible: %d", code)
	}
	if code := do(t, "GET", ts.URL+taskHref(task.ID), tok2, nil, nil); code != http.StatusForbidden {
		t.Fatalf("foreign task visible: %d", code)
	}

	var powerTask TaskJSON
	code = do(t, "POST", ts.URL+"/api/vApp/"+itoa(task.VAppID)+"/power/action/powerOff", tok, nil, &powerTask)
	if code != http.StatusAccepted {
		t.Fatalf("powerOff: status %d", code)
	}
	if final := pollTask(t, ts.URL, tok, powerTask.ID); final.Status != "success" {
		t.Fatalf("powerOff task: %+v", final)
	}

	var delTask TaskJSON
	if code := do(t, "DELETE", ts.URL+"/api/vApp/"+itoa(task.VAppID), tok, nil, &delTask); code != http.StatusAccepted {
		t.Fatalf("delete: status %d", code)
	}
	if final := pollTask(t, ts.URL, tok, delTask.ID); final.Status != "success" {
		t.Fatalf("delete task: %+v", final)
	}
	var org OrgJSON
	do(t, "GET", ts.URL+orgHref("org0"), tok, nil, &org)
	if len(org.VApps) != 0 {
		t.Fatalf("org still holds vApps after delete: %+v", org)
	}

	var stats StatsJSON
	if code := do(t, "GET", ts.URL+"/api/admin/stats", tok, nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Submitted != 3 || stats.Completed != 3 || stats.VirtualNowS <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRequestValidation(t *testing.T) {
	ts, _ := startServer(t, 1)
	tok := login(t, ts.URL, "erin@org0")

	body, _ := json.Marshal(InstantiateJSON{Template: "no-such-template"})
	if code := do(t, "POST", ts.URL+"/api/vdc/provider-vdc/action/instantiateVAppTemplate", tok, body, nil); code != http.StatusBadRequest {
		t.Fatalf("bad template: %d", code)
	}
	if code := do(t, "POST", ts.URL+"/api/vdc/nowhere/action/instantiateVAppTemplate", tok, body, nil); code != http.StatusNotFound {
		t.Fatalf("bad vdc: %d", code)
	}
	if code := do(t, "POST", ts.URL+"/api/vApp/abc/power/action/powerOn", tok, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad vApp id: %d", code)
	}
	if code := do(t, "POST", ts.URL+"/api/vApp/7/power/action/reboot", tok, nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown power op: %d", code)
	}
	if code := do(t, "GET", ts.URL+taskHref(999), tok, nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing task: %d", code)
	}
	if code := do(t, "GET", ts.URL+"/api/org", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated query: %d", code)
	}
}

func TestServerStopping(t *testing.T) {
	ts, srv := startServer(t, 1)
	tok := login(t, ts.URL, "frank@org0")
	srv.Frontend().Driver().Stop()
	// Wait for the driver loop to exit and reject submissions.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ := json.Marshal(InstantiateJSON{Template: "tpl00"})
		code := do(t, "POST", ts.URL+"/api/vdc/provider-vdc/action/instantiateVAppTemplate", tok, body, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stopped server still accepting: %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := do(t, "GET", ts.URL+orgHref("org0"), tok, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("org view on stopped driver: %d", code)
	}
}

// TestLoadgenAgainstServer drives the in-package load generator at a
// live server and checks the latency split it captures.
func TestLoadgenAgainstServer(t *testing.T) {
	ts, _ := startServer(t, 2)
	res, err := RunLoad(LoadConfig{
		BaseURL:     ts.URL,
		Users:       8,
		Orgs:        8,
		Duration:    400 * time.Millisecond,
		VMs:         1,
		Seed:        1,
		PollInitial: 2 * time.Millisecond,
		PollMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded == 0 {
		t.Fatalf("no successful ops: %+v", res)
	}
	if len(res.LatenciesS) != int(res.Succeeded) || len(res.QueueWaitsS) != int(res.Succeeded) {
		t.Fatalf("latency capture mismatch: %d/%d/%d", res.Succeeded, len(res.LatenciesS), len(res.QueueWaitsS))
	}
	if res.VirtualEndS <= 0 {
		t.Fatalf("virtual clock not captured: %+v", res)
	}
	if p99 := res.PercentileS(99); p99 <= 0 {
		t.Fatalf("p99 = %v", p99)
	}
	if share := res.QueueShare(); share < 0 || share > 1 {
		t.Fatalf("queue share = %v", share)
	}
	if res.GoodPerHour() <= 0 {
		t.Fatalf("good/h = %v", res.GoodPerHour())
	}
}

// TestSessionIdleEviction pins the session-leak fix: abandoned sessions
// are reaped after the idle TTL while sessions that keep making
// requests survive indefinitely. The clock is injected so the test
// controls idleness exactly.
func TestSessionIdleEviction(t *testing.T) {
	ts, srv := startServer(t, 1)
	clock := time.Unix(1700000000, 0)
	srv.now = func() time.Time { return clock }
	srv.SetSessionTTL(time.Minute)

	active := login(t, ts.URL, "alice@org1")
	abandoned1 := login(t, ts.URL, "bob@org1")
	abandoned2 := login(t, ts.URL, "carol@org2")
	if got := srv.Sessions(); got != 3 {
		t.Fatalf("sessions after login: %d", got)
	}

	// The active session touches the API every 30s for five minutes; the
	// other two never come back.
	for i := 0; i < 10; i++ {
		clock = clock.Add(30 * time.Second)
		if code := do(t, "GET", ts.URL+"/api/session", active, nil, nil); code != http.StatusOK {
			t.Fatalf("active session rejected at +%ds: %d", 30*(i+1), code)
		}
	}

	if got := srv.Sessions(); got != 1 {
		t.Fatalf("sessions after idle period: %d, want 1 (abandoned reaped)", got)
	}
	if code := do(t, "GET", ts.URL+"/api/session", abandoned1, nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("abandoned session 1 still accepted: %d", code)
	}
	if code := do(t, "GET", ts.URL+"/api/session", abandoned2, nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("abandoned session 2 still accepted: %d", code)
	}
	// The survivor is still valid even after everything else was reaped.
	if code := do(t, "GET", ts.URL+"/api/session", active, nil, nil); code != http.StatusOK {
		t.Fatalf("active session lost: %d", code)
	}

	// An expired-but-unswept token must be rejected on first touch even
	// when the throttled sweep has not run yet: make one session, let it
	// expire by a hair past the TTL, and present it immediately.
	fresh := login(t, ts.URL, "dave@org1")
	clock = clock.Add(time.Minute + time.Second)
	if code := do(t, "GET", ts.URL+"/api/session", fresh, nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("expired token accepted: %d", code)
	}

	// TTL 0 disables eviction entirely.
	srv.SetSessionTTL(0)
	forever := login(t, ts.URL, "erin@org1")
	clock = clock.Add(240 * time.Hour)
	if code := do(t, "GET", ts.URL+"/api/session", forever, nil, nil); code != http.StatusOK {
		t.Fatalf("session evicted with TTL disabled: %d", code)
	}
}

// Every serving socket gets a header deadline and an idle deadline, and
// the helper keeps the handler it was given.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := NewHTTPServer(h)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.Handler != h {
		t.Errorf("Handler = %v, want the handler passed in", hs.Handler)
	}
}
