// Package node simulates the server node that SOL agents manage: CPU
// cores grouped into VMs, per-VM frequency scaling (DVFS), an analytic
// power model, synthesized hardware counters (instructions, unhalted /
// stalled / total cycles), and hypervisor accounting such as vCPU wait
// time.
//
// The paper evaluates on a two-socket Xeon with Hyper-V; agents observe
// that machine only through counters and act only through narrow knobs
// (core frequency, core assignment). This package reproduces those
// counters and knobs over simulated workloads so that the agents and
// the SOL runtime execute the same logic they would on hardware.
//
// The node advances in fixed ticks driven by the simulation clock: each
// tick it asks every VM's workload how much CPU it used given the
// resources currently granted, then integrates counters, power, and
// wait time.
package node

import (
	"fmt"
	"time"

	"sol/internal/clock"
	"sol/internal/workload"
)

// FrequencyLevels is the DVFS operating-point table. Frequencies are in
// GHz; Voltages are relative and enter the power model as V².
type FrequencyLevels struct {
	GHz      []float64
	Voltages []float64
}

// Validate checks the table for consistency.
func (f FrequencyLevels) Validate() error {
	if len(f.GHz) == 0 {
		return fmt.Errorf("node: no frequency levels")
	}
	if len(f.GHz) != len(f.Voltages) {
		return fmt.Errorf("node: %d frequencies but %d voltages", len(f.GHz), len(f.Voltages))
	}
	for i := 1; i < len(f.GHz); i++ {
		if f.GHz[i] <= f.GHz[i-1] {
			return fmt.Errorf("node: frequencies not ascending at level %d", i)
		}
	}
	return nil
}

// DefaultFrequencies matches the paper's SmartOverclock setup: nominal
// 1.5 GHz with overclocked points at 1.9 and 2.3 GHz. Voltage rises
// super-linearly with frequency, which is what makes overclocking
// power-expensive.
func DefaultFrequencies() FrequencyLevels {
	return FrequencyLevels{
		GHz:      []float64{1.5, 1.9, 2.3},
		Voltages: []float64{0.80, 1.00, 1.25},
	}
}

// PowerModel computes per-VM power as
//
//	P = (StaticPerCore·cores + DynamicPerCore·util) · f · V(f)²
//
// in arbitrary watt-like units. StaticPerCore dominating reflects the
// paper's evaluation platform, which disables C-states: idle cores
// still burn near-full power at the configured frequency, so parking a
// workload at a high frequency wastes large amounts of power — the
// failure mode several SmartOverclock safeguards exist to stop.
type PowerModel struct {
	StaticPerCore  float64
	DynamicPerCore float64
}

// DefaultPowerModel returns the calibration used by the experiments.
func DefaultPowerModel() PowerModel {
	return PowerModel{StaticPerCore: 1.0, DynamicPerCore: 0.3}
}

// Power returns the instantaneous power for cores cores with util
// busy core-equivalents at frequency f (GHz) and relative voltage v.
func (p PowerModel) Power(cores int, util, f, v float64) float64 {
	return (p.StaticPerCore*float64(cores) + p.DynamicPerCore*util) * f * v * v
}

// Config describes a simulated node.
type Config struct {
	Frequencies FrequencyLevels
	Power       PowerModel
	// NominalLevel is the index into Frequencies considered the safe
	// default (SmartOverclock's "nominal frequency").
	NominalLevel int
	// MaxIPC is the peak instructions-per-cycle a core can retire; it
	// bounds valid IPS readings (the data-validation check).
	MaxIPC float64
	// TickInterval is the simulation step. Finer ticks cost more events
	// but resolve faster workload dynamics; the harvest experiments use
	// 50µs, the overclock experiments 10ms.
	TickInterval time.Duration
}

// DefaultConfig returns a node matching the experiments' setup.
func DefaultConfig() Config {
	return Config{
		Frequencies:  DefaultFrequencies(),
		Power:        DefaultPowerModel(),
		NominalLevel: 0,
		MaxIPC:       2.0,
		TickInterval: 10 * time.Millisecond,
	}
}

func (c Config) validate() error {
	if err := c.Frequencies.Validate(); err != nil {
		return err
	}
	if c.NominalLevel < 0 || c.NominalLevel >= len(c.Frequencies.GHz) {
		return fmt.Errorf("node: NominalLevel %d out of range", c.NominalLevel)
	}
	if c.MaxIPC <= 0 {
		return fmt.Errorf("node: MaxIPC = %v, must be positive", c.MaxIPC)
	}
	if c.TickInterval <= 0 {
		return fmt.Errorf("node: TickInterval = %v, must be positive", c.TickInterval)
	}
	return nil
}

// CPUCounters is a cumulative snapshot of the synthesized hardware
// counters for one VM. Agents difference two snapshots to obtain rates
// (e.g. IPS over the last 100 ms).
type CPUCounters struct {
	// Instructions retired (in 1e9 instruction units, matching GHz).
	Instructions float64
	// UnhaltedCycles is cycles where a core was executing (1e9 units).
	UnhaltedCycles float64
	// StalledCycles is the stalled subset of unhalted cycles.
	StalledCycles float64
	// TotalCycles counts all cycles on all allocated cores.
	TotalCycles float64
	// At is the snapshot time: the node clock's time.Time for the VM's
	// last tick, built when the snapshot is read (VM.Counters).
	At time.Time
}

// IPS returns instructions per second between an earlier snapshot prev
// and this one, in 1e9-instruction units. It returns 0 for a
// non-positive interval.
func (c CPUCounters) IPS(prev CPUCounters) float64 {
	dt := c.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return (c.Instructions - prev.Instructions) / dt
}

// Alpha returns the paper's actuator-safeguard factor
// (unhalted − stalled)/total over the interval since prev.
func (c CPUCounters) Alpha(prev CPUCounters) float64 {
	total := c.TotalCycles - prev.TotalCycles
	if total <= 0 {
		return 0
	}
	return ((c.UnhaltedCycles - prev.UnhaltedCycles) - (c.StalledCycles - prev.StalledCycles)) / total
}

// VM is one virtual machine on the node.
type VM struct {
	name      string
	allocated int // cores allocated to the VM
	available int // cores currently granted (allocated − harvested)
	freqLevel int
	work      workload.CPUWorkload

	// counters holds the cumulative counters; their At stays zero, and
	// atNS — ns on clk's timebase — stands for it until Counters reads.
	counters CPUCounters
	clk      clock.Clock
	atNS     int64
	// waitSeconds accumulates core-seconds of unmet CPU demand — the
	// hypervisor's vCPU wait counter that SmartHarvest's actuator
	// safeguard monitors.
	waitSeconds float64
	// lastUtil and lastUnmet are the most recent tick's readings, for
	// fine-grained usage sampling.
	lastUtil  float64
	lastUnmet float64
	energy    float64
}

// Name returns the VM's name.
func (v *VM) Name() string { return v.name }

// AllocatedCores returns the VM's core allocation.
func (v *VM) AllocatedCores() int { return v.allocated }

// The accessors below are what an agent reads on every sample. Agents
// resolve their *VM once at construction and go through the handle;
// Node's name-keyed accessors wrap these same methods.

// FrequencyLevel returns the VM's current DVFS level.
func (v *VM) FrequencyLevel() int { return v.freqLevel }

// AvailableCores returns the cores currently granted to the VM.
func (v *VM) AvailableCores() int { return v.available }

// SetAvailableCores grants the VM count of its allocated cores (the
// rest are harvested). count is clamped to [0, allocated].
func (v *VM) SetAvailableCores(count int) {
	if count < 0 {
		count = 0
	}
	if count > v.allocated {
		count = v.allocated
	}
	v.available = count
}

// Counters returns the VM's cumulative counter snapshot.
func (v *VM) Counters() CPUCounters {
	c := v.counters
	c.At = v.clk.At(v.atNS)
	return c
}

// CurrentUtil returns the VM's CPU usage (in cores) during the most
// recent tick — the fine-grained usage signal SmartHarvest samples
// every 50 µs.
func (v *VM) CurrentUtil() float64 { return v.lastUtil }

// CurrentUnmet returns the VM's unmet CPU demand (in cores) during the
// most recent tick.
func (v *VM) CurrentUnmet() float64 { return v.lastUnmet }

// WaitSeconds returns the VM's cumulative vCPU wait (core-seconds of
// unmet demand).
func (v *VM) WaitSeconds() float64 { return v.waitSeconds }

// Node is the simulated server. Its first usualVMs VMs live inline in
// the Node, and every *VM AddVM returns — the handle agents hold for
// life — may point into it, so a Node must not be copied after New
// (go vet's copylocks check reports a copy).
type Node struct {
	noCopy noCopy

	cfg Config
	clk clock.Clock
	// vms holds the VMs in AddVM order. A node has a handful, so
	// finding one by name is a scan, not a map lookup. It starts as a
	// window onto vmPtrs, and its first usualVMs entries point into
	// vmArr; AddVM allocates a VM, and grows vms by append, only past
	// that.
	vms    []*VM
	vmPtrs [usualVMs]*VM
	vmArr  [usualVMs]VM
	ticker clock.Timer
	// ticks counts simulation steps, for tests.
	ticks   uint64
	started bool
	// step is the tick every workload sees. Its length in ns and in
	// seconds (every VM integrates over the latter) are fixed at New;
	// tick only moves step.Now.
	step workload.Step
}

// usualVMs sizes a new node's inline VM table for the standard fleet
// node's three VMs (batch, primary, elastic).
const usualVMs = 3

// noCopy makes go vet's copylocks check report a copied Node: the
// check flags any value whose type has Lock and Unlock methods.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New creates a node on clk. Call AddVM to populate it and Start to
// begin ticking.
func New(clk clock.Clock, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, clk: clk}
	n.step = workload.Step{Clock: clk, Len: int64(cfg.TickInterval), Sec: cfg.TickInterval.Seconds()}
	n.vms = n.vmPtrs[:0]
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(clk clock.Clock, cfg Config) *Node {
	n, err := New(clk, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// AddVM registers a VM with cores allocated cores running work. The VM
// starts at the nominal frequency with all cores available.
func (n *Node) AddVM(name string, cores int, work workload.CPUWorkload) (*VM, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("node: VM %q with %d cores", name, cores)
	}
	if n.VM(name) != nil {
		return nil, fmt.Errorf("node: duplicate VM %q", name)
	}
	var vm *VM
	if i := len(n.vms); i < usualVMs {
		vm = &n.vmArr[i]
	} else {
		vm = new(VM)
	}
	*vm = VM{
		name:      name,
		allocated: cores,
		available: cores,
		freqLevel: n.cfg.NominalLevel,
		work:      work,
		clk:       n.clk,
		atNS:      n.clk.NowNS(),
	}
	n.vms = append(n.vms, vm)
	return vm, nil
}

// VM returns the named VM, or nil.
func (n *Node) VM(name string) *VM {
	for _, vm := range n.vms {
		if vm.name == name {
			return vm
		}
	}
	return nil
}

// Start begins the periodic tick loop. It panics if called twice.
func (n *Node) Start() {
	if n.started {
		panic("node: Start called twice")
	}
	n.started = true
	n.clk.Arm(&n.ticker, (*nodeTicker)(n), n.cfg.TickInterval, n.cfg.TickInterval)
}

// nodeTicker is the Node as its ticker's handler: a pointer conversion,
// so arming allocates no callback.
type nodeTicker Node

func (t *nodeTicker) Fire(now int64) { (*Node)(t).tick(now) }

// Stop cancels the tick loop.
func (n *Node) Stop() {
	n.ticker.Stop()
	n.started = false
}

// tick advances every VM to now, the firing instant in ns.
func (n *Node) tick(now int64) {
	n.step.Now = now
	for _, vm := range n.vms {
		n.tickVM(vm)
	}
	n.ticks++
}

func (n *Node) tickVM(vm *VM) {
	f := n.cfg.Frequencies.GHz[vm.freqLevel]
	v := n.cfg.Frequencies.Voltages[vm.freqLevel]
	res := workload.Resources{Cores: float64(vm.available), FreqGHz: f}
	u := vm.work.Tick(n.step, res)

	sec := n.step.Sec
	vm.lastUtil = u.Util
	vm.lastUnmet = u.Unmet
	// vCPU wait measures hypervisor-level core contention: vCPUs that
	// exist (allocated) but have no physical core to run on. Demand
	// beyond the allocation queues inside the guest and shows up as
	// request latency, not as vCPU wait.
	wait := u.Unmet
	if max := float64(vm.allocated - vm.available); wait > max {
		wait = max
	}
	vm.waitSeconds += wait * sec

	unhalted := u.Util * sec * f
	stalled := unhalted * u.StallFrac
	vm.counters.Instructions += (unhalted - stalled) * u.IPC
	vm.counters.UnhaltedCycles += unhalted
	vm.counters.StalledCycles += stalled
	vm.counters.TotalCycles += float64(vm.allocated) * sec * f
	vm.atNS = n.step.Now

	vm.energy += n.cfg.Power.Power(vm.allocated, u.Util, f, v) * sec
}

// Ticks returns the number of completed simulation steps.
func (n *Node) Ticks() uint64 { return n.ticks }

// --- Knobs (what agents actuate) ---

// SetFrequencyLevel sets the DVFS level for all of a VM's cores. It
// returns an error for an unknown VM or out-of-range level.
func (n *Node) SetFrequencyLevel(vmName string, level int) error {
	vm := n.VM(vmName)
	if vm == nil {
		return fmt.Errorf("node: unknown VM %q", vmName)
	}
	if level < 0 || level >= len(n.cfg.Frequencies.GHz) {
		return fmt.Errorf("node: frequency level %d out of range", level)
	}
	vm.freqLevel = level
	return nil
}

// FrequencyLevel returns a VM's current DVFS level.
func (n *Node) FrequencyLevel(vmName string) int { return n.VM(vmName).FrequencyLevel() }

// FrequencyGHz returns a VM's current frequency in GHz.
func (n *Node) FrequencyGHz(vmName string) float64 {
	return n.cfg.Frequencies.GHz[n.VM(vmName).FrequencyLevel()]
}

// SetAvailableCores grants a VM count of its allocated cores (the rest
// are harvested). count is clamped to [0, allocated].
func (n *Node) SetAvailableCores(vmName string, count int) error {
	vm := n.VM(vmName)
	if vm == nil {
		return fmt.Errorf("node: unknown VM %q", vmName)
	}
	vm.SetAvailableCores(count)
	return nil
}

// AvailableCores returns the cores currently granted to a VM.
func (n *Node) AvailableCores(vmName string) int { return n.VM(vmName).AvailableCores() }

// --- Counters (what agents observe) ---

// Counters returns the cumulative counter snapshot for a VM.
func (n *Node) Counters(vmName string) CPUCounters { return n.VM(vmName).Counters() }

// CurrentUtil returns the VM's CPU usage (in cores) during the most
// recent tick.
func (n *Node) CurrentUtil(vmName string) float64 { return n.VM(vmName).CurrentUtil() }

// CurrentUnmet returns the VM's unmet CPU demand (in cores) during the
// most recent tick.
func (n *Node) CurrentUnmet(vmName string) float64 { return n.VM(vmName).CurrentUnmet() }

// WaitSeconds returns the cumulative vCPU wait (core-seconds of unmet
// demand) for a VM.
func (n *Node) WaitSeconds(vmName string) float64 { return n.VM(vmName).WaitSeconds() }

// EnergyJ returns the cumulative energy consumed by a VM's cores, in
// the power model's watt-seconds.
func (n *Node) EnergyJ(vmName string) float64 { return n.VM(vmName).energy }

// TotalEnergyJ returns cumulative energy across all VMs.
func (n *Node) TotalEnergyJ() float64 {
	var e float64
	for _, vm := range n.vms {
		e += vm.energy
	}
	return e
}

// NominalLevel returns the configured nominal DVFS level.
func (n *Node) NominalLevel() int { return n.cfg.NominalLevel }

// MaxIPS returns the highest plausible IPS reading for a VM: all
// allocated cores retiring MaxIPC at the top frequency. Data validation
// uses it as the upper range bound.
func (n *Node) MaxIPS(vmName string) float64 {
	vm := n.VM(vmName)
	top := n.cfg.Frequencies.GHz[len(n.cfg.Frequencies.GHz)-1]
	return float64(vm.allocated) * top * n.cfg.MaxIPC
}
