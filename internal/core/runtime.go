package core

import (
	"sync"
	"time"

	"sol/internal/clock"
)

// Options tunes runtime behaviour beyond the Schedule. The zero value
// is the standard, fully safeguarded SOL configuration; the Disable*
// fields exist so the evaluation can run the paper's "without
// safeguard" baselines through the identical runtime, and Blocking
// reproduces the blocking-actuator strawman of Figures 4 and 6.
type Options struct {
	// Blocking makes the Actuator wait indefinitely for a prediction
	// instead of acting on the MaxActuationDelay deadline. This is the
	// unsafe baseline design the paper compares against; production
	// agents must leave it false.
	Blocking bool

	// DisableDataValidation skips ValidateData and commits every
	// sample. Baseline for the invalid-data experiments.
	DisableDataValidation bool

	// DisableModelSafeguard skips AssessModel interception; learned
	// predictions always reach the Actuator. Baseline for the
	// inaccurate-model experiments.
	DisableModelSafeguard bool

	// DisableActuatorSafeguard skips AssessPerformance/Mitigate.
	// Baseline for the actuator-safeguard experiments.
	DisableActuatorSafeguard bool

	// ModelDelay, when non-nil, returns an extra scheduling delay to
	// impose on the model step planned for time t. It models the
	// throttling and starvation that host-priority work inflicts on
	// agents; the fault injectors in internal/faults provide
	// implementations.
	ModelDelay func(t time.Time) time.Duration

	// OnEpoch, when non-nil, is invoked after every learning epoch with
	// a summary of what the runtime did. Used by experiments and tests
	// for tracing; agents should not depend on it.
	OnEpoch func(EpochInfo)
}

// EpochInfo summarizes one learning epoch for the OnEpoch hook.
type EpochInfo struct {
	// Index is the 1-based epoch number.
	Index int
	// At is the time the epoch completed.
	At time.Time
	// Full reports whether the epoch collected enough valid data to
	// update the model (vs. short-circuiting on MaxEpochTime).
	Full bool
	// Default reports whether the prediction sent to the Actuator was
	// a default rather than a learned prediction.
	Default bool
	// Intercepted reports whether a learned prediction was produced but
	// replaced with a default because the model is failing assessment.
	Intercepted bool
}

// Runtime executes one agent's Model and Actuator control loops on a
// Clock. Create one with Run; stop it with Stop.
//
// All agent callbacks are serialized by an internal mutex, so Model and
// Actuator implementations never race with each other even on the real
// clock, where timer callbacks arrive on arbitrary goroutines. The
// loops remain temporally decoupled — an expensive or delayed model
// step never blocks the actuation deadline from firing — which is the
// property the paper's split design exists to provide.
type Runtime[D, P any] struct {
	clk   clock.Clock
	model Model[D, P]
	act   Actuator[P]
	sched Schedule
	opts  Options

	mu      sync.Mutex
	queue   *predQueue[P]
	stopped bool

	// Model-loop state. The collect timer is created once and re-armed
	// with Reset for every subsequent step; collectIntended carries the
	// step's intended time to the callback (the scheduled time may
	// differ when a ModelDelay fault is injected). Both instants are
	// nanoseconds on the clock's timebase (Clock.NowNS), so lateness,
	// epoch age and the next grid point are integer arithmetic; a
	// time.Time is built with Clock.At only for the hooks that take one.
	epochStart      int64
	validInEpoch    int
	epochIndex      int
	assessBad       bool
	collectTimer    *clock.Timer
	collectIntended int64

	// Actuator-loop state. One timer serves both firing reasons; the
	// actDeadline flag records whether the pending firing is the
	// MaxActuationDelay deadline or a wake for a fresh prediction.
	halted      bool
	actTimer    *clock.Timer
	actDeadline bool
	assessTimer *clock.Timer

	stats Stats
}

// Run validates the schedule, starts both control loops, and returns
// the running agent runtime. This is SOL::RunAgent from paper
// Listing 3.
func Run[D, P any](clk clock.Clock, model Model[D, P], act Actuator[P], sched Schedule, opts Options) (*Runtime[D, P], error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime[D, P]{
		clk:   clk,
		model: model,
		act:   act,
		sched: sched,
		opts:  opts,
		queue: newPredQueue[P](sched.queueCapacity()),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := clk.NowNS()
	r.stats.StartedAt = clk.At(now)
	r.epochStart = now
	r.scheduleCollect(now+int64(sched.DataCollectInterval), sched.DataCollectInterval)
	r.scheduleActDeadline()
	if sched.AssessActuatorInterval > 0 && !opts.DisableActuatorSafeguard {
		r.scheduleAssess()
	}
	return r, nil
}

// MustRun is Run but panics on error; for examples and tests with
// literal schedules.
func MustRun[D, P any](clk clock.Clock, model Model[D, P], act Actuator[P], sched Schedule, opts Options) *Runtime[D, P] {
	r, err := Run(clk, model, act, sched, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// Stop halts both loops and invokes the Actuator's CleanUp. It is
// idempotent.
func (r *Runtime[D, P]) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.collectTimer.Stop()
	r.actTimer.Stop()
	r.assessTimer.Stop()
	r.stats.StoppedAt = r.clk.Now()
	r.mu.Unlock()
	// CleanUp is idempotent and stateless by contract; call it outside
	// the lock so it can never deadlock against in-flight callbacks.
	r.act.CleanUp()
}

// Stats returns a snapshot of the runtime's counters.
func (r *Runtime[D, P]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.PredictionsExpired = r.queue.expired
	s.PredictionsDropped = r.queue.dropped
	return s
}

// Halted reports whether the actuator loop is currently halted by its
// performance safeguard.
func (r *Runtime[D, P]) Halted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.halted
}

// ModelAssessmentFailing reports whether the model safeguard is
// currently intercepting predictions.
func (r *Runtime[D, P]) ModelAssessmentFailing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.assessBad
}

// Health returns the runtime's health snapshot under a single lock
// acquisition — the cheap read path fleet monitors poll between
// lockstep epochs instead of Stats+Halted+ModelAssessmentFailing
// (three acquisitions and a full counter copy).
func (r *Runtime[D, P]) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Health{
		Halted:                    r.halted,
		ModelFailing:              r.assessBad,
		Actions:                   r.stats.Actions,
		ActuatorSafeguardTriggers: r.stats.ActuatorSafeguardTriggers,
		ModelSafeguardTriggers:    r.stats.ModelSafeguardTriggers,
		Mitigations:               r.stats.Mitigations,
		ScheduleViolations:        r.stats.ScheduleViolations,
		DataRejected:              r.stats.DataRejected,
		DataCollected:             r.stats.DataCollected,
	}
}

// --- Model loop ---

// scheduleCollect arms the collect timer for the intended time (ns on
// the clock's timebase), applying any injected model delay. d is how
// far intended lies from the clock reading the caller took this step —
// every caller already knows it, so arming costs no second clock read.
// The timer and its closure are created once; every later step re-arms
// them in place. Callers hold r.mu.
func (r *Runtime[D, P]) scheduleCollect(intended int64, d time.Duration) {
	if r.opts.ModelDelay != nil {
		if extra := r.opts.ModelDelay(r.clk.At(intended)); extra > 0 {
			d += extra
		}
	}
	r.collectIntended = intended
	if r.collectTimer == nil {
		r.collectTimer = r.clk.AfterFunc(d, r.collectStep)
	} else {
		r.collectTimer.Reset(d)
	}
}

func (r *Runtime[D, P]) collectStep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	intended := r.collectIntended
	now := r.clk.NowNS()
	late := time.Duration(now - intended)
	if late > r.sched.latenessTolerance() {
		r.stats.ScheduleViolations++
		if h, ok := r.model.(ScheduleViolationHandler); ok {
			h.OnScheduleViolation(r.clk.At(intended), r.clk.At(now))
		}
	}

	d, err := r.model.CollectData()
	r.stats.DataCollected++
	switch {
	case err != nil:
		r.stats.CollectErrors++
	case r.opts.DisableDataValidation:
		r.model.CommitData(r.clk.At(now), d)
		r.validInEpoch++
	default:
		if verr := r.model.ValidateData(d); verr != nil {
			r.stats.DataRejected++
		} else {
			r.model.CommitData(r.clk.At(now), d)
			r.stats.DataCommitted++
			r.validInEpoch++
		}
	}

	switch {
	case r.validInEpoch >= r.sched.DataPerEpoch:
		r.finishEpoch(now, true)
	case time.Duration(now-r.epochStart) >= r.sched.MaxEpochTime:
		r.finishEpoch(now, false)
	default:
		// The next step stays on the intended grid: one interval after
		// this step's intended time, however late this step ran.
		r.scheduleCollect(intended+int64(r.sched.DataCollectInterval), r.sched.DataCollectInterval-late)
	}
}

// finishEpoch closes the current learning epoch at nowNS (the clock's
// timebase), producing and queueing exactly one prediction, then begins
// the next epoch. Callers hold r.mu.
func (r *Runtime[D, P]) finishEpoch(nowNS int64, full bool) {
	now := r.clk.At(nowNS)
	r.epochIndex++
	info := EpochInfo{Index: r.epochIndex, At: now, Full: full}

	var pred Prediction[P]
	if full {
		r.model.UpdateModel()
		r.stats.ModelUpdates++
		p, err := r.model.Predict()
		if err != nil {
			r.stats.PredictErrors++
			pred = r.defaultPrediction()
		} else {
			pred = p
		}
	} else {
		r.stats.EpochShortCircuits++
		pred = r.defaultPrediction()
	}

	// Periodic model assessment (the Model safeguard). The model keeps
	// learning while failing — only its predictions are intercepted —
	// so it can recover from a bad period on its own.
	if r.sched.AssessModelEvery > 0 && !r.opts.DisableModelSafeguard &&
		r.epochIndex%r.sched.AssessModelEvery == 0 {
		healthy := r.model.AssessModel()
		r.stats.ModelAssessments++
		if !healthy && !r.assessBad {
			r.stats.ModelSafeguardTriggers++
		}
		r.assessBad = !healthy
	}
	if r.assessBad && !pred.Default {
		r.stats.PredictionsIntercepted++
		info.Intercepted = true
		pred = r.defaultPrediction()
	}

	if pred.Expires.IsZero() && r.sched.PredictionTTL > 0 {
		pred.Expires = now.Add(r.sched.PredictionTTL)
	}
	pred.issued = now
	r.queue.push(pred)
	r.stats.PredictionsIssued++
	if pred.Default {
		r.stats.DefaultPredictions++
	}
	info.Default = pred.Default
	if r.opts.OnEpoch != nil {
		r.opts.OnEpoch(info)
	}

	r.wakeActuatorLocked()

	// Begin the next epoch immediately.
	r.epochStart = nowNS
	r.validInEpoch = 0
	r.scheduleCollect(nowNS+int64(r.sched.DataCollectInterval), r.sched.DataCollectInterval)
}

func (r *Runtime[D, P]) defaultPrediction() Prediction[P] {
	p := r.model.DefaultPredict()
	p.Default = true
	return p
}

// --- Actuator loop ---

// wakeActuatorLocked schedules an immediate actuator step in response
// to a newly queued prediction, re-arming the deadline timer in place
// rather than allocating a replacement. Callers hold r.mu.
func (r *Runtime[D, P]) wakeActuatorLocked() {
	if r.halted || r.stopped {
		return
	}
	r.actDeadline = false
	r.actTimer.Reset(0)
}

// scheduleActDeadline arms the MaxActuationDelay deadline. Callers hold
// r.mu.
func (r *Runtime[D, P]) scheduleActDeadline() {
	r.actDeadline = true
	if r.actTimer == nil {
		r.actTimer = r.clk.AfterFunc(r.sched.MaxActuationDelay, r.actuatorStep)
	} else {
		r.actTimer.Reset(r.sched.MaxActuationDelay)
	}
}

func (r *Runtime[D, P]) actuatorStep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || r.halted {
		return
	}
	deadline := r.actDeadline
	now := r.clk.Now()
	pred := r.queue.takeFreshest(now)
	r.stats.PredictionsExpired = r.queue.expired
	r.stats.PredictionsDropped = r.queue.dropped

	if pred == nil && deadline && r.opts.Blocking {
		// Blocking baseline: never act without a prediction; keep
		// waiting. This is exactly the behaviour Figures 4 and 6 show
		// to be unsafe.
		r.stats.BlockedDeadlines++
		r.scheduleActDeadline()
		return
	}

	if pred == nil {
		r.stats.ActionsWithoutPrediction++
	} else if pred.Default {
		r.stats.ActionsOnDefault++
	} else {
		r.stats.ActionsOnModel++
	}
	r.act.TakeAction(pred)
	r.stats.Actions++
	r.scheduleActDeadline()
}

// scheduleAssess starts the periodic actuator-performance check as a
// self-re-arming ticker: one timer and one closure for the life of the
// runtime. Callers hold r.mu.
func (r *Runtime[D, P]) scheduleAssess() {
	r.assessTimer = r.clk.Tick(r.sched.AssessActuatorInterval, r.assessStep)
}

func (r *Runtime[D, P]) assessStep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	ok := r.act.AssessPerformance()
	r.stats.ActuatorAssessments++
	switch {
	case !ok && !r.halted:
		// Trigger: mitigate and halt the actuator loop until the
		// safeguard condition clears.
		r.stats.ActuatorSafeguardTriggers++
		r.act.Mitigate()
		r.stats.Mitigations++
		r.halted = true
		r.actTimer.Stop()
	case ok && r.halted:
		// Recover: resume the actuator loop.
		r.halted = false
		r.stats.ActuatorResumes++
		r.scheduleActDeadline()
	}
}
