package node

import (
	"math"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/stats"
	"sol/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// constantLoad is a fixed-utilization workload for counter math tests.
type constantLoad struct {
	util, ipc, stall float64
	demand           float64 // if > util capacity, reports unmet
}

func (c *constantLoad) Name() string { return "constant" }
func (c *constantLoad) Tick(_ workload.Step, res workload.Resources) workload.Usage {
	util := c.util
	if c.demand > 0 {
		util = math.Min(c.demand, res.Cores)
		return workload.Usage{Util: util, Unmet: c.demand - util, IPC: c.ipc, StallFrac: c.stall}
	}
	if util > res.Cores {
		util = res.Cores
	}
	return workload.Usage{Util: util, IPC: c.ipc, StallFrac: c.stall}
}

func newTestNode(t *testing.T) (*clock.Virtual, *Node) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	n, err := New(clk, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return clk, n
}

func TestConfigValidation(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	bad := []Config{
		{}, // no frequencies
		func() Config { c := DefaultConfig(); c.NominalLevel = 9; return c }(),
		func() Config { c := DefaultConfig(); c.MaxIPC = 0; return c }(),
		func() Config { c := DefaultConfig(); c.TickInterval = 0; return c }(),
		func() Config {
			c := DefaultConfig()
			c.Frequencies.GHz = []float64{2, 1} // not ascending
			c.Frequencies.Voltages = []float64{1, 1}
			return c
		}(),
		func() Config {
			c := DefaultConfig()
			c.Frequencies.Voltages = c.Frequencies.Voltages[:1]
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(clk, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestAddVMValidation(t *testing.T) {
	_, n := newTestNode(t)
	if _, err := n.AddVM("a", 0, &constantLoad{}); err == nil {
		t.Fatal("0-core VM accepted")
	}
	if _, err := n.AddVM("a", 2, &constantLoad{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddVM("a", 2, &constantLoad{}); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if n.VM("a") == nil || n.VM("missing") != nil {
		t.Fatal("VM lookup wrong")
	}
}

func TestCounterSynthesis(t *testing.T) {
	clk, n := newTestNode(t)
	w := &constantLoad{util: 2, ipc: 1.5, stall: 0.2}
	if _, err := n.AddVM("vm", 4, w); err != nil {
		t.Fatal(err)
	}
	n.Start()
	clk.RunFor(time.Second)

	c := n.Counters("vm")
	f := 1.5 // nominal GHz
	wantUnhalted := 2.0 * 1.0 * f
	if math.Abs(c.UnhaltedCycles-wantUnhalted) > 1e-6 {
		t.Fatalf("UnhaltedCycles = %v, want %v", c.UnhaltedCycles, wantUnhalted)
	}
	if math.Abs(c.StalledCycles-0.2*wantUnhalted) > 1e-6 {
		t.Fatalf("StalledCycles = %v", c.StalledCycles)
	}
	wantInstr := (wantUnhalted - 0.2*wantUnhalted) * 1.5
	if math.Abs(c.Instructions-wantInstr) > 1e-6 {
		t.Fatalf("Instructions = %v, want %v", c.Instructions, wantInstr)
	}
	if math.Abs(c.TotalCycles-4*f) > 1e-6 {
		t.Fatalf("TotalCycles = %v, want %v", c.TotalCycles, 4*f)
	}
}

func TestIPSAndAlpha(t *testing.T) {
	clk, n := newTestNode(t)
	w := &constantLoad{util: 4, ipc: 2.0, stall: 0.25}
	n.AddVM("vm", 4, w)
	n.Start()
	prev := n.Counters("vm")
	clk.RunFor(time.Second)
	cur := n.Counters("vm")
	// IPS = util·f·(1-stall)·ipc = 4·1.5·0.75·2 = 9
	if ips := cur.IPS(prev); math.Abs(ips-9) > 1e-6 {
		t.Fatalf("IPS = %v, want 9", ips)
	}
	// alpha = (unhalted-stalled)/total = (4·1.5·0.75)/(4·1.5) = 0.75
	if a := cur.Alpha(prev); math.Abs(a-0.75) > 1e-6 {
		t.Fatalf("Alpha = %v, want 0.75", a)
	}
}

func TestIPSZeroInterval(t *testing.T) {
	var c CPUCounters
	if c.IPS(c) != 0 || c.Alpha(c) != 0 {
		t.Fatal("zero-interval rates should be 0")
	}
}

func TestFrequencyKnob(t *testing.T) {
	clk, n := newTestNode(t)
	n.AddVM("vm", 2, &constantLoad{util: 2, ipc: 1, stall: 0})
	n.Start()
	if err := n.SetFrequencyLevel("vm", 2); err != nil {
		t.Fatal(err)
	}
	if n.FrequencyLevel("vm") != 2 || n.FrequencyGHz("vm") != 2.3 {
		t.Fatal("frequency knob not applied")
	}
	if err := n.SetFrequencyLevel("vm", 5); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := n.SetFrequencyLevel("ghost", 0); err == nil {
		t.Fatal("unknown VM accepted")
	}
	prev := n.Counters("vm")
	clk.RunFor(time.Second)
	// At 2.3 GHz, IPS = 2·2.3·1·1 = 4.6.
	if ips := n.Counters("vm").IPS(prev); math.Abs(ips-4.6) > 1e-6 {
		t.Fatalf("IPS at 2.3GHz = %v, want 4.6", ips)
	}
}

func TestPowerScalesWithFrequencyAndUtil(t *testing.T) {
	pm := DefaultPowerModel()
	fl := DefaultFrequencies()
	idle15 := pm.Power(4, 0, fl.GHz[0], fl.Voltages[0])
	busy15 := pm.Power(4, 4, fl.GHz[0], fl.Voltages[0])
	idle23 := pm.Power(4, 0, fl.GHz[2], fl.Voltages[2])
	busy23 := pm.Power(4, 4, fl.GHz[2], fl.Voltages[2])
	if busy15 <= idle15 || busy23 <= idle23 {
		t.Fatal("dynamic power not increasing with util")
	}
	// The f·V² ratio between 2.3 and 1.5 GHz is ~3.74: this is the
	// super-linear cost that drives the Figure 3 result.
	ratio := idle23 / idle15
	if ratio < 3.5 || ratio > 4.0 {
		t.Fatalf("idle power ratio 2.3/1.5 = %v, want ~3.74", ratio)
	}
}

func TestEnergyAccumulation(t *testing.T) {
	clk, n := newTestNode(t)
	n.AddVM("vm", 4, &constantLoad{util: 0, ipc: 1, stall: 0})
	n.Start()
	clk.RunFor(10 * time.Second)
	pm := DefaultPowerModel()
	fl := DefaultFrequencies()
	want := pm.Power(4, 0, fl.GHz[0], fl.Voltages[0]) * 10
	if got := n.EnergyJ("vm"); math.Abs(got-want) > 1e-6 {
		t.Fatalf("EnergyJ = %v, want %v", got, want)
	}
	if n.TotalEnergyJ() != n.EnergyJ("vm") {
		t.Fatal("TotalEnergyJ mismatch for single VM")
	}
}

func TestCoreHarvestingAndWait(t *testing.T) {
	clk, n := newTestNode(t)
	w := &constantLoad{demand: 4, ipc: 1, stall: 0}
	n.AddVM("vm", 4, w)
	n.Start()
	if err := n.SetAvailableCores("vm", 2); err != nil {
		t.Fatal(err)
	}
	if n.AvailableCores("vm") != 2 {
		t.Fatal("available cores not applied")
	}
	clk.RunFor(time.Second)
	// Demand 4, granted 2 → unmet 2 cores for 1s = 2 core-seconds.
	if ws := n.WaitSeconds("vm"); math.Abs(ws-2) > 1e-6 {
		t.Fatalf("WaitSeconds = %v, want 2", ws)
	}
	if u := n.CurrentUtil("vm"); math.Abs(u-2) > 1e-6 {
		t.Fatalf("CurrentUtil = %v, want 2", u)
	}
	if um := n.CurrentUnmet("vm"); math.Abs(um-2) > 1e-6 {
		t.Fatalf("CurrentUnmet = %v, want 2", um)
	}
}

func TestSetAvailableCoresClamps(t *testing.T) {
	_, n := newTestNode(t)
	n.AddVM("vm", 4, &constantLoad{})
	n.SetAvailableCores("vm", 99)
	if n.AvailableCores("vm") != 4 {
		t.Fatal("count not clamped to allocation")
	}
	n.SetAvailableCores("vm", -1)
	if n.AvailableCores("vm") != 0 {
		t.Fatal("count not clamped to zero")
	}
	if err := n.SetAvailableCores("ghost", 1); err == nil {
		t.Fatal("unknown VM accepted")
	}
}

// TestOnTickCallback: a clock tick armed after Start at the node's
// tick interval fires once per node tick, right after it — the way
// tests sample the node once per tick.
func TestOnTickCallback(t *testing.T) {
	clk, n := newTestNode(t)
	n.AddVM("vm", 1, &constantLoad{})
	n.Start()
	calls := 0
	clk.Tick(10*time.Millisecond, func() {
		calls++
		if got := n.Ticks(); got != uint64(calls) {
			t.Fatalf("callback %d ran after %d node ticks, want right after tick %d", calls, got, calls)
		}
	})
	clk.RunFor(100 * time.Millisecond)
	if calls != 10 {
		t.Fatalf("callback fired %d times in 100ms of 10ms ticks, want 10", calls)
	}
	if n.Ticks() != 10 {
		t.Fatalf("Ticks() = %d", n.Ticks())
	}
}

func TestStopHaltsTicking(t *testing.T) {
	clk, n := newTestNode(t)
	n.AddVM("vm", 1, &constantLoad{})
	n.Start()
	clk.RunFor(50 * time.Millisecond)
	n.Stop()
	ticks := n.Ticks()
	clk.RunFor(time.Second)
	if n.Ticks() != ticks {
		t.Fatal("node ticked after Stop")
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, n := newTestNode(t)
	n.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	n.Start()
}

func TestMaxIPS(t *testing.T) {
	_, n := newTestNode(t)
	n.AddVM("vm", 4, &constantLoad{})
	// 4 cores · 2.3 GHz · 2 IPC = 18.4
	if got := n.MaxIPS("vm"); math.Abs(got-18.4) > 1e-9 {
		t.Fatalf("MaxIPS = %v, want 18.4", got)
	}
}

func TestMultipleVMsIndependent(t *testing.T) {
	clk, n := newTestNode(t)
	n.AddVM("a", 2, &constantLoad{util: 2, ipc: 1, stall: 0})
	n.AddVM("b", 2, &constantLoad{util: 0, ipc: 1, stall: 0})
	n.Start()
	n.SetFrequencyLevel("a", 2)
	clk.RunFor(time.Second)
	if n.EnergyJ("a") <= n.EnergyJ("b") {
		t.Fatal("busy overclocked VM should use more energy than idle nominal VM")
	}
	if n.FrequencyLevel("b") != 0 {
		t.Fatal("frequency change leaked across VMs")
	}
}

// TestVMsPastInlineTable adds VMs past the usualVMs a Node holds
// inline: every handle must stay distinct and valid as the table grows
// onto the heap, keep its name, and be ticked.
func TestVMsPastInlineTable(t *testing.T) {
	clk, n := newTestNode(t)
	names := []string{"a", "b", "c", "d", "e"}
	vms := make([]*VM, len(names))
	for i, name := range names {
		vm, err := n.AddVM(name, i+1, &constantLoad{util: 1, ipc: 1})
		if err != nil {
			t.Fatal(err)
		}
		vms[i] = vm
	}
	n.Start()
	clk.RunFor(time.Second)
	for i, vm := range vms {
		for _, other := range vms[:i] {
			if vm == other {
				t.Fatalf("VM %q shares its handle with %q", vm.Name(), other.Name())
			}
		}
		if vm.Name() != names[i] || n.VM(names[i]) != vm {
			t.Fatalf("handle %d is %q (node resolves %q to %p, handle %p)", i, vm.Name(), names[i], n.VM(names[i]), vm)
		}
		// 100 ticks of 10 ms over i+1 cores at the nominal 1.5 GHz.
		c := vm.Counters()
		if want := float64(i+1) * 1.5; math.Abs(c.TotalCycles-want) > 1e-9 || !c.At.Equal(clk.Now()) {
			t.Fatalf("VM %q: %v total cycles at %v, want %v at %v", vm.Name(), c.TotalCycles, c.At, want, clk.Now())
		}
	}
	if n.Ticks() != 100 {
		t.Fatalf("node ticked %d times, want 100", n.Ticks())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(clock.NewVirtual(epoch), Config{})
}

// Sanity check that a queueing workload runs on the node and produces
// latency samples — integration between node and workload packages.
func TestNodeWithObjectStore(t *testing.T) {
	clk, n := newTestNode(t)
	os := workload.NewObjectStore(stats.NewRNG(1), 4, 1.5, 0.8)
	n.AddVM("vm", 4, os)
	n.Start()
	clk.RunFor(30 * time.Second)
	if os.Served() == 0 {
		t.Fatal("ObjectStore served no requests")
	}
	if os.P99LatencySeconds() <= 0 {
		t.Fatal("no P99 latency recorded")
	}
	util := n.Counters("vm").UnhaltedCycles / (30 * 1.5) // core-equivalents
	if util < 2.0 || util > 4.0 {
		t.Fatalf("ObjectStore utilization = %v cores, want high load on 4", util)
	}
}

// TestVMHandleMatchesNameAccessors: the name-keyed Node accessors are
// wrappers over the VM handle agents resolve once, so both views must
// agree, including the clamping of core grants.
func TestVMHandleMatchesNameAccessors(t *testing.T) {
	clk, n := newTestNode(t)
	vm, err := n.AddVM("a", 4, &constantLoad{demand: 3, ipc: 1.5, stall: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if n.VM("a") != vm {
		t.Fatal("VM lookup returned a different handle than AddVM")
	}
	n.Start()
	vm.SetAvailableCores(2)
	if err := n.SetFrequencyLevel("a", 1); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(time.Second)
	if vm.CurrentUtil() != n.CurrentUtil("a") || vm.CurrentUtil() != 2 {
		t.Fatalf("util: handle %v, by name %v, want 2", vm.CurrentUtil(), n.CurrentUtil("a"))
	}
	if vm.CurrentUnmet() != n.CurrentUnmet("a") || vm.CurrentUnmet() != 1 {
		t.Fatalf("unmet: handle %v, by name %v, want 1", vm.CurrentUnmet(), n.CurrentUnmet("a"))
	}
	if vm.AvailableCores() != n.AvailableCores("a") || vm.AvailableCores() != 2 {
		t.Fatalf("available: handle %d, by name %d, want 2", vm.AvailableCores(), n.AvailableCores("a"))
	}
	if vm.FrequencyLevel() != n.FrequencyLevel("a") || vm.FrequencyLevel() != 1 {
		t.Fatalf("level: handle %d, by name %d, want 1", vm.FrequencyLevel(), n.FrequencyLevel("a"))
	}
	if vm.Counters() != n.Counters("a") || vm.Counters().Instructions == 0 {
		t.Fatalf("counters: handle %+v, by name %+v", vm.Counters(), n.Counters("a"))
	}
	if vm.WaitSeconds() != n.WaitSeconds("a") || vm.WaitSeconds() == 0 {
		t.Fatalf("wait: handle %v, by name %v, want > 0", vm.WaitSeconds(), n.WaitSeconds("a"))
	}
	vm.SetAvailableCores(99)
	if vm.AvailableCores() != 4 {
		t.Fatalf("grant of 99 clamped to %d, want 4", vm.AvailableCores())
	}
	vm.SetAvailableCores(-1)
	if n.AvailableCores("a") != 0 {
		t.Fatalf("grant of -1 clamped to %d, want 0", n.AvailableCores("a"))
	}
}

// TestTickAllocs pins the substrate's share of a simulated event: one
// node tick over its VMs, and an agent's reads through the VM handle,
// allocate nothing.
func TestTickAllocs(t *testing.T) {
	clk, n := newTestNode(t)
	vm, _ := n.AddVM("a", 4, &constantLoad{demand: 3, ipc: 1.5, stall: 0.2})
	n.AddVM("b", 8, &constantLoad{util: 2, ipc: 1, stall: 0.5})
	n.Start()
	clk.RunFor(time.Second)
	var sink float64
	if avg := testing.AllocsPerRun(1000, func() {
		clk.RunFor(n.Config().TickInterval)
		sink += vm.CurrentUtil() + vm.CurrentUnmet() + vm.WaitSeconds() + vm.Counters().Instructions + float64(vm.AvailableCores())
	}); avg != 0 {
		t.Fatalf("node tick allocates %.1f times, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("handle read nothing")
	}
}
