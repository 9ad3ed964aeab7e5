// Package core implements the SOL framework from "SOL: Safe On-Node
// Learning in Cloud Platforms" (ASPLOS 2022): an extensible runtime for
// building on-node machine-learning agents that remain safe under the
// failure conditions that occur in production — bad input data,
// inaccurate models, scheduling delays, and environmental interference.
//
// An agent is written by implementing two interfaces. Model (paper
// Listing 1) owns the learning logic: collecting telemetry, validating
// it, updating the model, and producing predictions with explicit
// expiration times. Actuator (paper Listing 2) owns the node-management
// logic: taking a control action, assessing end-to-end behaviour, and
// mitigating or cleaning up when that behaviour is unacceptable.
//
// The runtime (Run / Runtime) schedules the two as decoupled control
// loops so the lightweight Actuator keeps taking safe actions even when
// the expensive Model is throttled, delayed, or failing its accuracy
// assessment. Predictions flow from Model to Actuator through a bounded
// queue; the runtime intercepts predictions from a model that fails
// assessment and substitutes the developer's safe defaults.
package core

import (
	"fmt"
	"time"
)

// Prediction is the output of one learning epoch: a value plus an
// explicit expiration time. Every prediction expires — even default
// predictions rely on fresh telemetry and go stale (paper §4.1).
type Prediction[P any] struct {
	// Value is the predicted value the Actuator acts on.
	Value P
	// Expires is the instant after which the prediction must not be
	// used. The runtime drops expired predictions before they reach
	// TakeAction.
	Expires time.Time
	// Default marks a safe fallback produced by DefaultPredict rather
	// than the learned model.
	Default bool
	// issued is stamped by the runtime when the prediction is queued.
	issued time.Time
}

// Expired reports whether the prediction is unusable at time now.
//
// The boundary is inclusive of the expiry instant: a prediction
// consumed exactly at Expires is still usable (the check is
// now.After(Expires), not !now.Before(Expires)). This is a pinned
// contract, not an accident — agents commonly set Expires to the next
// actuation deadline, and the actuator's deadline timer fires exactly
// at that instant on the virtual clock, so an exclusive boundary would
// silently discard every deadline-aligned prediction. A zero Expires
// never expires.
func (p Prediction[P]) Expired(now time.Time) bool {
	return !p.Expires.IsZero() && now.After(p.Expires)
}

// Issued returns when the runtime queued this prediction (zero if the
// prediction never passed through a runtime).
func (p Prediction[P]) Issued() time.Time { return p.issued }

// Model is the learning half of a SOL agent (paper Listing 1),
// parameterized by the collected data type D and the prediction type P.
// All methods are invoked from the Model control loop only, so
// implementations need no internal locking against the runtime.
//
// CollectData, ValidateData and CommitData run once per sample — every
// 50 µs for SmartHarvest — and are the runtime's hot path: an
// implementation should do arithmetic there and nothing else. Two
// rules of the contract exist to make that possible. Samples are
// borrowed: the runtime is done with a D before it asks for the next
// one. Predictions are owned: a P leaves the Model for good.
type Model[D, P any] interface {
	// CollectData reads one telemetry sample. Errors are counted and
	// the sample is skipped; persistent errors eventually short-circuit
	// the epoch into a default prediction.
	//
	// The returned D is only valid until the next CollectData: the
	// runtime passes it to ValidateData and CommitData and then drops
	// it, so a D may alias buffers the Model reuses for every sample.
	// CommitData must copy out whatever it keeps.
	CollectData() (D, error)

	// ValidateData checks a single sample against the model's data
	// assumptions (range checks, distributional checks). A non-nil
	// error discards the sample before it can corrupt the model.
	//
	// The runtime counts the rejection (Stats.DataRejected) and drops
	// the error: it is never rendered, logged or wrapped. Return
	// preallocated sentinel errors, not freshly formatted ones:
	// SmartHarvest's censoring check legitimately rejects one sample in
	// seven, which at 50 µs sampling would be thousands of formatted
	// messages per node-second that nobody reads.
	ValidateData(d D) error

	// CommitData incorporates a validated sample, stamped with the
	// collection time.
	CommitData(t time.Time, d D)

	// UpdateModel trains on the data committed since its previous
	// call. It is called at most once per epoch, and only when the
	// epoch committed DataPerEpoch samples: an epoch that reaches
	// MaxEpochTime first is short-circuited to a default prediction
	// without an update, so what it committed carries into the next
	// update, on top of that epoch's own samples.
	UpdateModel()

	// Predict produces the epoch's prediction from the current model.
	// An error short-circuits to DefaultPredict.
	//
	// The returned value crosses to the Actuator loop: it waits in the
	// prediction queue (QueueCapacity deep) and the Actuator may keep
	// it after TakeAction. Unlike a D it must not alias memory the
	// Model will overwrite.
	Predict() (Prediction[P], error)

	// DefaultPredict returns the safe fallback used when the model
	// cannot produce a trustworthy prediction (insufficient data,
	// prediction error, or failed assessment). Defaults should minimize
	// impact on the agent's safety metric at the cost of efficiency.
	DefaultPredict() Prediction[P]

	// AssessModel reports whether model accuracy is currently
	// acceptable. While it returns false the runtime intercepts learned
	// predictions and forwards defaults instead, but keeps training the
	// model so it can recover.
	AssessModel() bool
}

// Actuator is the control half of a SOL agent (paper Listing 2). By
// design it resembles a non-learning agent: a control function plus an
// independent end-to-end safeguard.
type Actuator[P any] interface {
	// TakeAction performs one control action. pred is nil when no
	// fresh, unexpired prediction was available by the actuation
	// deadline — the agent must then take a conservative, safe action.
	TakeAction(pred *Prediction[P])

	// AssessPerformance measures the agent's end-to-end behaviour
	// against its safety metric, independent of model state. It returns
	// false when impact is unacceptable.
	AssessPerformance() bool

	// Mitigate is invoked when AssessPerformance fails; it must bring
	// the node back to a safe state. The actuator loop then halts until
	// AssessPerformance passes again.
	Mitigate()

	// CleanUp stops the agent's effects and restores a clean node
	// state. It must be idempotent and callable at any time, by anyone
	// (e.g. an SRE), regardless of agent state.
	CleanUp()
}

// Schedule carries the developer-provided timing parameters for the two
// control loops (paper Listing 3).
type Schedule struct {
	// DataPerEpoch is the number of validated samples that complete a
	// learning epoch. Must be >= 1.
	DataPerEpoch int
	// DataCollectInterval is the period between CollectData calls.
	DataCollectInterval time.Duration
	// MaxEpochTime bounds a learning epoch. If it elapses before
	// DataPerEpoch valid samples arrive, the epoch short-circuits and a
	// default prediction is sent.
	MaxEpochTime time.Duration
	// AssessModelEvery runs AssessModel every K epochs. Zero disables
	// periodic assessment (the model is always trusted).
	AssessModelEvery int
	// MaxActuationDelay is the longest the Actuator waits for a
	// prediction before acting without one. It upper-bounds the time
	// between control actions.
	MaxActuationDelay time.Duration
	// AssessActuatorInterval is the period between AssessPerformance
	// checks. Zero disables the actuator safeguard.
	AssessActuatorInterval time.Duration
	// PredictionTTL is the expiry applied to predictions whose model
	// left Expires zero. Zero means such predictions never expire.
	PredictionTTL time.Duration
	// QueueCapacity bounds the prediction queue; when full, the oldest
	// prediction is dropped. Zero means the default of 4.
	QueueCapacity int
	// LatenessTolerance is how late a scheduled model step may run
	// before it is recorded (and reported) as a scheduling violation.
	// Zero means the default of one DataCollectInterval.
	LatenessTolerance time.Duration
}

// Validate checks the schedule for internal consistency.
func (s Schedule) Validate() error {
	switch {
	case s.DataPerEpoch < 1:
		return fmt.Errorf("core: DataPerEpoch = %d, must be >= 1", s.DataPerEpoch)
	case s.DataCollectInterval <= 0:
		return fmt.Errorf("core: DataCollectInterval = %v, must be positive", s.DataCollectInterval)
	case s.MaxEpochTime <= 0:
		return fmt.Errorf("core: MaxEpochTime = %v, must be positive", s.MaxEpochTime)
	case s.MaxActuationDelay <= 0:
		return fmt.Errorf("core: MaxActuationDelay = %v, must be positive", s.MaxActuationDelay)
	case s.AssessModelEvery < 0:
		return fmt.Errorf("core: AssessModelEvery = %d, must be >= 0", s.AssessModelEvery)
	case s.AssessActuatorInterval < 0:
		return fmt.Errorf("core: AssessActuatorInterval = %v, must be >= 0", s.AssessActuatorInterval)
	case s.QueueCapacity < 0:
		return fmt.Errorf("core: QueueCapacity = %d, must be >= 0", s.QueueCapacity)
	case s.PredictionTTL < 0:
		return fmt.Errorf("core: PredictionTTL = %v, must be >= 0", s.PredictionTTL)
	case s.LatenessTolerance < 0:
		return fmt.Errorf("core: LatenessTolerance = %v, must be >= 0", s.LatenessTolerance)
	}
	return nil
}

func (s Schedule) queueCapacity() int {
	if s.QueueCapacity == 0 {
		return inlinePreds
	}
	return s.QueueCapacity
}

func (s Schedule) latenessTolerance() time.Duration {
	if s.LatenessTolerance == 0 {
		return s.DataCollectInterval
	}
	return s.LatenessTolerance
}
