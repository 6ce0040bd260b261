package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"cloudmcp/internal/inventory"
)

// The inventory scale-ladder micro-benchmark behind -bench-inventory:
// wall-clock cost of one placement+churn cycle (pick the most-free host
// and datastore, register a VM, deregister it) against inventories of
// 10^3..10^6 prepopulated VMs, through both the indexed path
// (inventory.BestHost/BestDatastore, the heap indexes the director uses)
// and the linear reference scan the indexes replaced. The simulated E19
// artifact is deliberately free of wall-clock numbers — they would break
// byte-identical output across machines — so this emitter is where the
// sublinear-growth claim is measured and recorded (BENCH_inventory.json,
// next to BENCH_kernel.json).

type invSizeEntry struct {
	Size           int     `json:"size"`
	Hosts          int     `json:"hosts"`
	Datastores     int     `json:"datastores"`
	BuildNsPerVM   float64 `json:"build_ns_per_vm"`
	IndexedNsPerOp float64 `json:"indexed_place_cycle_ns_per_op"`
	LinearNsPerOp  float64 `json:"linear_place_cycle_ns_per_op"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
}

type invBenchReport struct {
	benchEnv
	Results []invSizeEntry `json:"results"`
	// IndexedGrowth is the indexed cycle's ns/op ratio between the two
	// largest ladder rungs (1.0 = flat; the linear scan's ratio tracks
	// the size ratio instead). The repo's acceptance bar is < 2 for the
	// 10^5 → 10^6 step.
	IndexedGrowth float64 `json:"indexed_growth_last_step"`
	LinearGrowth  float64 `json:"linear_growth_last_step"`
}

// buildInventory constructs an inventory shaped like e19Topology's cloud
// for the given VM count and prepopulates it the same way
// core.(*Cloud).PrepopulateVMs does: round-robin powered-off 2 vCPU /
// 2 GB / 1 GB VMs at half memory occupancy.
func buildInventory(size int) *inventory.Inventory {
	hosts := 32
	if h := (size + 127) / 128; h > hosts {
		hosts = h
	}
	dss := 8
	if d := (size + 4999) / 5000; d > dss {
		dss = d
	}
	inv := inventory.New()
	dc := inv.AddDatacenter("dc0")
	cl := inv.AddCluster(dc, "cluster0")
	for i := 0; i < hosts; i++ {
		inv.AddHost(cl, fmt.Sprintf("host%02d", i), 80000, 524288)
	}
	for i := 0; i < dss; i++ {
		inv.AddDatastore(dc, fmt.Sprintf("ds%02d", i), 20000, 300)
	}
	hostIDs := inv.Hosts()
	dsIDs := inv.Datastores()
	for i := 0; i < size; i++ {
		host := inv.Host(hostIDs[i%len(hostIDs)])
		ds := inv.Datastore(dsIDs[i%len(dsIDs)])
		vm, err := inv.AddVM(fmt.Sprintf("prevm%07d", i), host, ds, 2, 2048, 1.0)
		if err != nil {
			panic(err)
		}
		vm.State = inventory.VMPoweredOff
	}
	return inv
}

// linearBestHost is the O(hosts) reference scan the index replaced:
// most-free in-service host that fits, first wins ties.
func linearBestHost(inv *inventory.Inventory, memMB int) *inventory.Host {
	var best *inventory.Host
	for _, id := range inv.Hosts() {
		h := inv.Host(id)
		if !h.InService() || h.FreeMemMB() < memMB {
			continue
		}
		if best == nil || h.FreeMemMB() > best.FreeMemMB() {
			best = h
		}
	}
	return best
}

// linearBestDatastore is the O(datastores) reference scan.
func linearBestDatastore(inv *inventory.Inventory, needGB float64) *inventory.Datastore {
	var best *inventory.Datastore
	for _, id := range inv.Datastores() {
		d := inv.Datastore(id)
		if inv.EffectiveFreeGB(d) < needGB {
			continue
		}
		if best == nil || inv.EffectiveFreeGB(d) > inv.EffectiveFreeGB(best) {
			best = d
		}
	}
	return best
}

// placeCycle registers one VM on the chosen (host, datastore) and
// removes it again — the churn that keeps the indexes honest: every
// cycle rekeys both heaps twice.
func placeCycle(inv *inventory.Inventory, h *inventory.Host, d *inventory.Datastore, i int) {
	vm, err := inv.AddVM(fmt.Sprintf("bench%d", i), h, d, 2, 2048, 1.0)
	if err != nil {
		panic(err)
	}
	if err := inv.RemoveVM(vm); err != nil {
		panic(err)
	}
}

// benchInventorySize measures one ladder rung.
func benchInventorySize(size int) invSizeEntry {
	var inv *inventory.Inventory
	build := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv = buildInventory(size)
		}
	})
	if inv == nil {
		inv = buildInventory(size)
	}
	e := invSizeEntry{
		Size:         size,
		Hosts:        len(inv.Hosts()),
		Datastores:   len(inv.Datastores()),
		BuildNsPerVM: float64(build.T.Nanoseconds()) / float64(build.N) / float64(size),
	}
	indexed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := inv.BestHost(2048)
			d := inv.BestDatastore(1.0)
			placeCycle(inv, h, d, i)
		}
	})
	e.IndexedNsPerOp = float64(indexed.T.Nanoseconds()) / float64(indexed.N)
	linear := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := linearBestHost(inv, 2048)
			d := linearBestDatastore(inv, 1.0)
			placeCycle(inv, h, d, i)
		}
	})
	e.LinearNsPerOp = float64(linear.T.Nanoseconds()) / float64(linear.N)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.HeapAllocBytes = ms.HeapAlloc
	// The inventory must stay live through the measurement or the GC
	// above reclaims it and HeapAlloc reports an empty heap.
	runtime.KeepAlive(inv)
	return e
}

// benchInventory runs the ladder up to maxSize and writes the JSON
// report to outPath ("-" for w itself). A one-line summary per rung goes
// to w as it completes.
func benchInventory(w io.Writer, outPath string, maxSize int) error {
	rep := invBenchReport{benchEnv: newBenchEnv("inventory")}
	for _, size := range ladder(maxSize) {
		e := benchInventorySize(size)
		rep.Results = append(rep.Results, e)
		if _, err := fmt.Fprintf(w, "inventory/%-8d %12.1f ns/op indexed %14.1f ns/op linear %10d B heap\n",
			e.Size, e.IndexedNsPerOp, e.LinearNsPerOp, e.HeapAllocBytes); err != nil {
			return err
		}
	}
	if n := len(rep.Results); n >= 2 {
		a, b := rep.Results[n-2], rep.Results[n-1]
		if a.IndexedNsPerOp > 0 {
			rep.IndexedGrowth = b.IndexedNsPerOp / a.IndexedNsPerOp
		}
		if a.LinearNsPerOp > 0 {
			rep.LinearGrowth = b.LinearNsPerOp / a.LinearNsPerOp
		}
	}
	return writeBenchReport(w, "bench-inventory", outPath, rep)
}

// ladder returns the powers of ten from 10^3 up to max, appending max
// itself when it is not a power of ten. max below 1000 gets a single
// rung of max.
func ladder(max int) []int {
	if max < 1000 {
		return []int{max}
	}
	var sizes []int
	for s := 1000; s <= max; s *= 10 {
		sizes = append(sizes, s)
	}
	if last := sizes[len(sizes)-1]; last != max {
		sizes = append(sizes, max)
	}
	return sizes
}
