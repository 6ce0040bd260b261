package main

// Layer probes: each times one call into a single layer's public API in
// a tight loop, outside any workload run, so a change to that layer shows
// here even when the end-to-end numbers hide it in noise.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/faults"
	"cloudmcp/internal/inventory"
	"cloudmcp/internal/rng"
	"cloudmcp/internal/sim"
)

// probeBatch is the host time one probe batch aims for; probeBatches
// batches are timed and the median per-operation time reported.
const (
	probeBatch   = 5 * time.Millisecond
	probeBatches = 7
)

// probeNs returns the median nanoseconds per operation of fn(n), which
// must perform n operations.
func probeNs(fn func(n int)) float64 {
	n := 1
	var d time.Duration
	for {
		t := time.Now()
		fn(n)
		d = time.Since(t)
		if d >= probeBatch/4 || n >= 1<<24 {
			break
		}
		n *= 4
	}
	if d > 0 {
		n = max(1, int(float64(n)*float64(probeBatch)/float64(d)))
	}
	per := make([]float64, probeBatches)
	for i := range per {
		t := time.Now()
		fn(n)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

func probeSwitch(n int) {
	env := sim.NewEnv()
	env.Go("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	env.Run(sim.Forever)
}

func probeSchedule(n int) {
	env := sim.NewEnv()
	left := n
	var step func()
	step = func() {
		if left--; left > 0 {
			env.Schedule(1, step)
		}
	}
	env.Schedule(1, step)
	env.Run(sim.Forever)
}

func probeResource(n int) {
	env := sim.NewEnv()
	r := sim.NewResource(env, "probe", 1)
	env.Go("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.Acquire(p, 1)
			r.Release(1)
		}
	})
	env.Run(sim.Forever)
}

// probePaced starts an idle paced driver at the serving ratio and returns
// the median wall latency of a no-op Do in milliseconds, and the
// driver's worst lag.
func probePaced() (doMS, lagMS float64) {
	drv := sim.NewPaced(sim.NewEnv(), servePaced)
	done := make(chan struct{})
	go func() {
		drv.Run(sim.Forever)
		close(done)
	}()
	doMS = probeDo(drv, 400)
	drv.Stop()
	<-done
	return doMS, float64(drv.MaxLag()) / float64(time.Millisecond)
}

// probeDo times n no-op Paced.Do calls and returns their median in ms.
func probeDo(drv *sim.Paced, n int) float64 {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		drv.Do(func(*sim.Env) {})
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(lat)
}

// probeDeployCycle times one DeployVApp+DeleteVApp on an idle cloud
// built from cfg, in host ns and heap allocations per cycle.
func probeDeployCycle(cfg core.Config) (ns, allocs float64, err error) {
	c, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	inv := c.Inventory()
	dir := c.Director()
	tpl := inv.Template(inv.Templates()[0])
	var objs []float64
	ns = probeNs(func(n int) {
		c.Go("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				res := dir.DeployVApp(p, "org0", tpl, 1, false)
				if res.Err == nil || (res.VApp != nil && inv.VApp(res.VApp.ID) != nil) {
					dir.DeleteVApp(p, res.VApp, "org0")
				}
			}
			p.Env().Stop()
		})
		before := readAllocs()
		c.Run(sim.Forever)
		objs = append(objs, float64(readAllocs().objs-before.objs)/float64(n))
	})
	return ns, median(objs), nil
}

// probePlaceCycle times one indexed placement plus AddVM/RemoveVM on inv.
func probePlaceCycle(inv *inventory.Inventory) (float64, error) {
	var err error
	i := 0
	ns := probeNs(func(n int) {
		for k := 0; k < n && err == nil; k++ {
			h, d := inv.BestHost(2048), inv.BestDatastore(1.0)
			if h == nil || d == nil {
				err = fmt.Errorf("no host or datastore for a probe VM")
				return
			}
			var vm *inventory.VM
			if vm, err = inv.AddVM("probe"+strconv.Itoa(i), h, d, 2, 2048, 1.0); err == nil {
				vm.State = inventory.VMPoweredOff
				err = inv.RemoveVM(vm)
			}
			i++
		}
	})
	return ns, err
}

// probeJSON encodes a task handle and an org view the way api's
// writeJSON does: a fresh indenting encoder per response.
func probeJSON(n int) {
	task := api.TaskJSON{ID: 12345, Operation: "instantiate", Org: "org3", Status: "success",
		Href: "/api/task/12345", SubmitS: 3600.25, StartS: 3600.5, EndS: 3642.75,
		QueueWaitS: 0.25, LatencyS: 42.5, MgmtTasks: 2, VAppID: 678, VAppName: "vapp-org3-678",
		VAppHref: "/api/vApp/678"}
	org := api.OrgJSON{Name: "org3", QuotaVMs: 0, LiveVMs: 4, VDCHref: "/api/vdc/provider-vdc"}
	for i := 0; i < 4; i++ {
		org.VApps = append(org.VApps, api.VAppJSON{ID: int64(600 + i), Name: "vapp-org3-" + strconv.Itoa(600+i),
			Org: "org3", VMs: 1, PoweredOn: 0, Href: "/api/vApp/" + strconv.Itoa(600+i)})
	}
	for i := 0; i < n; i++ {
		for _, v := range []any{task, org} {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				sink = err
			}
		}
	}
}

// commonProbes fills the probes every workload reports, each inside a
// span of its own; cfg is the workload's own cloud configuration.
// pacedLive reports whether the workload already measured its live paced
// driver.
func commonProbes(l map[string]float64, cfg core.Config, pacedLive bool, tr *tracer) error {
	probe := func(name string, fn func()) { tr.do("probe."+name, 0, func(int64) { fn() }) }
	probe("sim.switch_ns", func() { l["sim.switch_ns"] = probeNs(probeSwitch) })
	probe("sim.schedule_ns", func() { l["sim.schedule_ns"] = probeNs(probeSchedule) })
	probe("sim.resource_cycle_ns", func() { l["sim.resource_cycle_ns"] = probeNs(probeResource) })
	if !pacedLive {
		probe("sim.paced_do_ms", func() { l["sim.paced_do_ms"], l["sim.paced_max_lag_ms"] = probePaced() })
	}
	var err error
	probe("clouddir.deploy_cycle_ns", func() {
		l["clouddir.deploy_cycle_ns"], l["clouddir.deploy_cycle_allocs"], err = probeDeployCycle(cfg)
	})
	if err != nil {
		return err
	}
	rs := rng.NewReseeder()
	probe("rng.reseed_ns", func() {
		l["rng.reseed_ns"] = probeNs(func(n int) {
			var s *rng.Stream
			for i := 0; i < n; i++ {
				s = rs.Reseed(int64(i))
			}
			sink = s
		})
	})
	inj, err := faults.New(cfg.Seed, faults.Preset(0.1))
	if err != nil {
		return err
	}
	probe("faults.decide_ns", func() {
		l["faults.decide_ns"] = probeNs(func(n int) {
			var o faults.Outcome
			for i := 0; i < n; i++ {
				o = inj.Decide(faults.LayerHost, "deploy", int64(i), 1)
			}
			sink = o
		})
	})
	probe("api.json_encode_ns", func() { l["api.json_encode_ns"] = probeNs(probeJSON) })
	return nil
}
