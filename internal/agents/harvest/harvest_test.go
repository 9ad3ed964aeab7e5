package harvest

import (
	"math"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/node"
	"sol/internal/stats"
	"sol/internal/workload"
)

var epoch = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// steppedLoad alternates between low and high demand phases.
type steppedLoad struct {
	low, high    float64
	phase        time.Duration
	started      bool
	next         int64 // ns on the node clock's timebase
	inHigh       bool
	demandOffset float64
}

func (s *steppedLoad) Name() string { return "stepped" }
func (s *steppedLoad) Tick(st workload.Step, res workload.Resources) workload.Usage {
	if !s.started {
		s.started = true
		s.next = st.Now + int64(s.phase)
	}
	if st.Now >= s.next {
		s.inHigh = !s.inHigh
		s.next = st.Now + int64(s.phase)
	}
	demand := s.low
	if s.inHigh {
		demand = s.high
	}
	demand += s.demandOffset
	util := math.Min(demand, res.Cores)
	return workload.Usage{Util: util, Unmet: demand - util, IPC: 1.2, StallFrac: 0.2}
}

func harvestNode(t *testing.T, w workload.CPUWorkload) (*clock.Virtual, *node.Node, *workload.Elastic) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	cfg := node.DefaultConfig()
	cfg.TickInterval = 50 * time.Microsecond
	n := node.MustNew(clk, cfg)
	if _, err := n.AddVM("primary", 8, w); err != nil {
		t.Fatal(err)
	}
	el := workload.NewElastic()
	if _, err := n.AddVM("elastic", 8, el); err != nil {
		t.Fatal(err)
	}
	// The elastic VM starts with no cores; it only gets loans.
	n.SetAvailableCores("elastic", 0)
	n.Start()
	return clk, n, el
}

func launchAgent(t *testing.T, clk *clock.Virtual, n *node.Node, opts core.Options) *Agent {
	t.Helper()
	ag, err := start(clk, n, DefaultConfig("primary", "elastic"), Schedule(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ag.Stop)
	return ag
}

func TestConstructorsRejectUnknownVMs(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	n := node.MustNew(clk, node.DefaultConfig())
	n.AddVM("primary", 4, &steppedLoad{})
	if _, err := NewModel(n, DefaultConfig("ghost", "")); err == nil {
		t.Fatal("unknown primary accepted")
	}
	if _, err := NewActuator(n, DefaultConfig("primary", "ghost")); err == nil {
		t.Fatal("unknown elastic accepted")
	}
}

func TestHarvestsIdleCores(t *testing.T) {
	w := &steppedLoad{low: 2.3, high: 2.3, phase: time.Hour} // steady ~2-core demand
	clk, n, el := harvestNode(t, w)
	launchAgent(t, clk, n, core.Options{})
	clk.RunFor(3 * time.Second)
	if el.CoreSeconds() < 1 {
		t.Fatalf("elastic VM received %.2f core-seconds; harvesting not happening", el.CoreSeconds())
	}
	// Grant should settle near demand + buffer, far below 8.
	if g := n.AvailableCores("primary"); g > 5 {
		t.Fatalf("steady 2-core demand but grant = %d", g)
	}
}

func TestReturnsCoresOnDemandSpike(t *testing.T) {
	w := &steppedLoad{low: 1, high: 7, phase: 200 * time.Millisecond}
	clk, n, _ := harvestNode(t, w)
	launchAgent(t, clk, n, core.Options{})
	clk.RunFor(5 * time.Second)
	// Sample unmet demand over further run: the agent must mostly keep
	// up with the alternation.
	if frac := meanUnmet(clk, n, 3*time.Second); frac > 1.0 {
		t.Fatalf("average unmet demand %.3f cores; agent not returning cores", frac)
	}
}

// meanUnmet runs clk for d and returns the primary VM's unmet demand
// averaged over the node ticks in that span, sampled right after each.
func meanUnmet(clk *clock.Virtual, n *node.Node, d time.Duration) float64 {
	var unmet, ticks float64
	tk := clk.Tick(n.Config().TickInterval, func() {
		unmet += n.CurrentUnmet("primary")
		ticks++
	})
	clk.RunFor(d)
	tk.Stop()
	return unmet / ticks
}

func TestValidateDataFullUtilizationDiscard(t *testing.T) {
	clk, n, _ := harvestNode(t, &steppedLoad{low: 2, high: 2, phase: time.Hour})
	m, err := NewModel(n, DefaultConfig("primary", "elastic"))
	if err != nil {
		t.Fatal(err)
	}
	_ = clk
	if err := m.ValidateData(Sample{Util: 3, Granted: 8}); err != nil {
		t.Fatalf("normal sample rejected: %v", err)
	}
	if err := m.ValidateData(Sample{Util: 4, Granted: 4}); err == nil {
		t.Fatal("censored full-utilization sample accepted")
	}
	if err := m.ValidateData(Sample{Util: 8, Granted: 8}); err == nil {
		t.Fatal("full-allocation sample accepted")
	}
	if err := m.ValidateData(Sample{Util: -1, Granted: 8}); err == nil {
		t.Fatal("negative usage accepted")
	}
	if err := m.ValidateData(Sample{Util: 99, Granted: 8}); err == nil {
		t.Fatal("out-of-range usage accepted")
	}
}

func TestLearnsToPredictDemand(t *testing.T) {
	w := &steppedLoad{low: 3.4, high: 3.4, phase: time.Hour}
	clk, n, _ := harvestNode(t, w)
	ag := launchAgent(t, clk, n, core.Options{})
	clk.RunFor(5 * time.Second)
	p, err := ag.Model.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if p.Value < 3 || p.Value > 5 {
		t.Fatalf("steady 3-core demand predicted as %d cores", p.Value)
	}
}

func TestDefaultPredictionIsFullAllocation(t *testing.T) {
	w := &steppedLoad{low: 4, high: 4, phase: time.Hour}
	clk, n, _ := harvestNode(t, w)
	ag := launchAgent(t, clk, n, core.Options{})
	clk.RunFor(2 * time.Second)
	// The only always-safe default under censoring is the whole
	// allocation: observed usage cannot reveal true demand when the VM
	// is clipped at its grant.
	if d := ag.Model.DefaultPredict(); d.Value != 8 {
		t.Fatalf("default prediction = %d, want full allocation 8", d.Value)
	}
}

func TestBrokenModelDetectedByAssessment(t *testing.T) {
	w := &steppedLoad{low: 4, high: 6, phase: 300 * time.Millisecond}
	clk, n, _ := harvestNode(t, w)
	ag := launchAgent(t, clk, n, core.Options{})
	clk.RunFor(2 * time.Second)
	ag.Model.Break(true)
	clk.RunFor(3 * time.Second)
	if !ag.Health().ModelFailing {
		t.Fatal("model assessment did not catch systematic under-prediction")
	}
	// With interception the defaults grant generously again; unmet
	// demand must subside.
	if frac := meanUnmet(clk, n, 2*time.Second); frac > 0.5 {
		t.Fatalf("unmet demand %.3f cores despite safeguard interception", frac)
	}
	// Hysteresis: the assessment must not flap back to healthy while
	// the model stays broken (its predictions are still scored even
	// though they are intercepted).
	if !ag.Health().ModelFailing {
		t.Fatal("assessment flapped back to healthy while the model is still broken")
	}
	// And it must recover once the model is fixed.
	ag.Model.Break(false)
	clk.RunFor(4 * time.Second)
	if ag.Health().ModelFailing {
		t.Fatal("assessment did not recover after the model was fixed")
	}
}

func TestActuatorNilPredictionReturnsAllCores(t *testing.T) {
	clk, n, _ := harvestNode(t, &steppedLoad{low: 1, high: 1, phase: time.Hour})
	a, err := NewActuator(n, DefaultConfig("primary", "elastic"))
	if err != nil {
		t.Fatal(err)
	}
	_ = clk
	a.TakeAction(&core.Prediction[int]{Value: 2})
	if n.AvailableCores("primary") != 2 { // prediction + default buffer 0
		t.Fatalf("grant = %d, want 2", n.AvailableCores("primary"))
	}
	if n.AvailableCores("elastic") != 6 {
		t.Fatalf("elastic loan = %d, want 6", n.AvailableCores("elastic"))
	}
	a.TakeAction(nil)
	if n.AvailableCores("primary") != 8 || n.AvailableCores("elastic") != 0 {
		t.Fatal("nil prediction did not return all cores")
	}
}

func TestActuatorGrantBounds(t *testing.T) {
	_, n, _ := harvestNode(t, &steppedLoad{})
	a, _ := NewActuator(n, DefaultConfig("primary", "elastic"))
	a.TakeAction(&core.Prediction[int]{Value: -5})
	if a.Granted() < 1 {
		t.Fatal("grant below 1")
	}
	a.TakeAction(&core.Prediction[int]{Value: 99})
	if a.Granted() != 8 {
		t.Fatal("grant above allocation")
	}
}

func TestActuatorSafeguardOnSustainedWait(t *testing.T) {
	// A broken model under-grants while demand is high. With the model
	// safeguard disabled, the actuator safeguard is the last line of
	// defense: sustained vCPU wait must trigger it, and mitigation must
	// return every core.
	w := &steppedLoad{low: 6, high: 6, phase: time.Hour}
	clk, n, _ := harvestNode(t, w)
	ag := launchAgent(t, clk, n, core.Options{DisableModelSafeguard: true})
	clk.RunFor(2 * time.Second)
	ag.Model.Break(true)
	clk.RunFor(15 * time.Second)
	if ag.Stats().Mitigations == 0 {
		t.Fatal("actuator safeguard never mitigated under sustained vCPU wait")
	}
	if n.AvailableCores("primary") != 8 && !ag.Health().Halted {
		t.Fatal("safeguard state inconsistent: not halted and cores not returned")
	}
}

func TestCleanUpRestoresAllCores(t *testing.T) {
	_, n, _ := harvestNode(t, &steppedLoad{})
	a, _ := NewActuator(n, DefaultConfig("primary", "elastic"))
	a.apply(2)
	a.CleanUp()
	a.CleanUp()
	if n.AvailableCores("primary") != 8 || n.AvailableCores("elastic") != 0 {
		t.Fatal("CleanUp did not restore core assignment")
	}
}

func TestFeatureVector(t *testing.T) {
	_, n, _ := harvestNode(t, &steppedLoad{})
	m, _ := NewModel(n, DefaultConfig("primary", "elastic"))
	utils := make([]float64, 500)
	for i := range utils {
		utils[i] = 4 // constant
	}
	f := m.features(utils)
	if len(f) != featureDims {
		t.Fatalf("feature dims = %d, want %d", len(f), featureDims)
	}
	if math.Abs(f[0]-0.5) > 1e-9 || math.Abs(f[1]-0.5) > 1e-9 {
		t.Fatalf("mean/max features = %v/%v, want 0.5 (4 of 8 cores)", f[0], f[1])
	}
	if f[3] != 0 {
		t.Fatalf("stddev of constant = %v", f[3])
	}
	if f[5] != 0 {
		t.Fatalf("trend of constant = %v", f[5])
	}
}

func TestCorruptorSeam(t *testing.T) {
	clk, n, _ := harvestNode(t, &steppedLoad{low: 2, high: 2, phase: time.Hour})
	ag := launchAgent(t, clk, n, core.Options{})
	rng := stats.NewRNG(5)
	ag.Model.SetCorruptor(func(s *Sample) {
		if rng.Bool(0.5) {
			s.Util = -3
		}
	})
	clk.RunFor(time.Second)
	if ag.Runtime.Stats().DataRejected == 0 {
		t.Fatal("corrupted samples not rejected")
	}
}

func TestTailbenchIntegration(t *testing.T) {
	// End-to-end: real image-dnn workload, agent keeps P99 inflation
	// bounded while harvesting something.
	rng := stats.NewRNG(11)
	clk, n, el := harvestNode(t, workload.NewImageDNN(rng, 8, 1.5))
	launchAgent(t, clk, n, core.Options{})
	clk.RunFor(20 * time.Second)
	if el.CoreSeconds() < 5 {
		t.Fatalf("harvested only %.1f core-seconds from image-dnn in 20s", el.CoreSeconds())
	}
}
