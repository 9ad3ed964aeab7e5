package workload

import "time"

// Synthetic reproduces the paper's Synthetic workload: a server that
// periodically receives a batch of compute-intensive requests,
// processes it as fast as its cores and frequency allow, then idles
// until the next batch. It benefits from overclocking only during the
// processing phases.
//
// Performance is the mean time to complete a batch (arrival to
// finish), matching "total time to complete a fixed number of batches"
// normalized per batch.
type Synthetic struct {
	// Period is the batch inter-arrival time (the paper uses 100 s).
	Period time.Duration
	// BatchWork is the compute per batch in core·GHz·seconds. With W
	// cores at f GHz a batch takes BatchWork/(W·f) seconds.
	BatchWork float64
	// IdleUtil is background CPU noise while idle, in cores.
	IdleUtil float64

	remaining float64
	// arrivedAt and nextArrive are ns on the node clock's timebase.
	arrivedAt  int64
	nextArrive int64
	started    bool
	busy       bool

	batchTimes []float64
	onPhase    []func(busy bool, at time.Time)
}

// NewSynthetic returns the standard configuration: batches every
// period, each needing work core·GHz·seconds.
func NewSynthetic(period time.Duration, work float64) *Synthetic {
	return &Synthetic{Period: period, BatchWork: work, IdleUtil: 0.05}
}

// Name implements CPUWorkload.
func (s *Synthetic) Name() string { return "Synthetic" }

// OnPhase registers a callback invoked at every busy/idle transition.
// The Figure 4 experiment uses it to inject a model delay exactly when
// a batch completes.
func (s *Synthetic) OnPhase(f func(busy bool, at time.Time)) {
	s.onPhase = append(s.onPhase, f)
}

// Busy reports whether a batch is currently processing.
func (s *Synthetic) Busy() bool { return s.busy }

// BatchesDone returns how many batches have completed.
func (s *Synthetic) BatchesDone() int { return len(s.batchTimes) }

// MeanBatchSeconds returns the mean batch completion time in seconds,
// or 0 before the first completion.
func (s *Synthetic) MeanBatchSeconds() float64 {
	return s.MeanBatchSecondsFrom(0)
}

// MeanBatchSecondsFrom returns the mean completion time of the batches
// after the first `skip` ones, so measurement windows can exclude a
// policy's warmup batches.
func (s *Synthetic) MeanBatchSecondsFrom(skip int) float64 {
	if skip >= len(s.batchTimes) {
		return 0
	}
	sum := 0.0
	for _, t := range s.batchTimes[skip:] {
		sum += t
	}
	return sum / float64(len(s.batchTimes)-skip)
}

// Tick implements CPUWorkload.
func (s *Synthetic) Tick(st Step, res Resources) Usage {
	now := st.Now
	if !s.started {
		s.started = true
		s.nextArrive = now // first batch arrives immediately
	}
	if now >= s.nextArrive {
		// A new batch arrives. If the previous one is somehow still
		// running, its work accumulates.
		if !s.busy {
			s.setBusy(true, st)
		}
		s.remaining += s.BatchWork
		s.arrivedAt = s.nextArrive
		s.nextArrive += int64(s.Period)
	}
	if s.busy {
		done := capacity(res, st.Sec)
		if done >= s.remaining {
			// Batch completes within this tick; account the fraction of
			// the tick actually used.
			frac := 0.0
			if done > 0 {
				frac = s.remaining / done
			}
			s.remaining = 0
			s.batchTimes = append(s.batchTimes, time.Duration(now+st.Len-s.arrivedAt).Seconds())
			s.setBusy(false, st)
			return Usage{
				Util:      res.Cores*frac + s.IdleUtil*(1-frac),
				IPC:       1.0,
				StallFrac: 0.10,
			}
		}
		s.remaining -= done
		return Usage{Util: res.Cores, IPC: 1.0, StallFrac: 0.10}
	}
	idle := s.IdleUtil
	if idle > res.Cores {
		idle = res.Cores
	}
	return Usage{Util: idle, IPC: 0.5, StallFrac: 0.5}
}

// setBusy records a busy/idle transition at the start of tick st and
// hands the OnPhase hooks the node clock's time for that instant.
func (s *Synthetic) setBusy(b bool, st Step) {
	s.busy = b
	if len(s.onPhase) == 0 {
		return
	}
	at := st.Clock.At(st.Now)
	for _, f := range s.onPhase {
		f(b, at)
	}
}
