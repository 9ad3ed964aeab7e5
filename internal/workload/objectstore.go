package workload

import "sol/internal/stats"

// ObjectStore models the paper's distributed key-value server running
// at high load: CPU-bound request serving where latency improves
// directly with core frequency, so overclocking always helps.
// Performance is P99 request latency.
//
// An ObjectStore holds its request server inline and must not be
// copied.
type ObjectStore struct {
	q queueServer
	// rate is the Poisson arrival rate in requests/second.
	rate float64
}

// NewObjectStore returns an ObjectStore sized to run cores cores at
// roughly targetUtil utilization at nominal frequency nominalGHz.
func NewObjectStore(rng *stats.RNG, cores int, nominalGHz, targetUtil float64) *ObjectStore {
	const meanDemand = 0.03 // core·GHz·s per request (~20 ms at 1.5 GHz)
	rate := targetUtil * float64(cores) * nominalGHz / meanDemand
	return &ObjectStore{q: newQueueServer(rng, meanDemand, cores), rate: rate}
}

// Name implements CPUWorkload.
func (o *ObjectStore) Name() string { return "ObjectStore" }

// Tick implements CPUWorkload.
func (o *ObjectStore) Tick(s Step, res Resources) Usage {
	u := o.q.step(s, res, o.rate)
	u.IPC = 1.5
	u.StallFrac = 0.20
	return u
}

// P99LatencySeconds returns the 99th-percentile request latency.
func (o *ObjectStore) P99LatencySeconds() float64 { return o.q.p99() }

// MeanLatencySeconds returns the mean request latency.
func (o *ObjectStore) MeanLatencySeconds() float64 { return o.q.meanLatency() }

// Served returns the number of completed requests.
func (o *ObjectStore) Served() uint64 { return o.q.served }

// DiskSpeed models the paper's disk-bound workload: throughput is
// limited by the disk, so CPU frequency buys nothing. Its cores sit
// mostly stalled on IO — the low-α signature SmartOverclock's actuator
// safeguard and reward function both key on. Performance is request
// throughput.
type DiskSpeed struct {
	// OpsPerSecond is the disk-bound service rate; it does not depend
	// on CPU frequency.
	OpsPerSecond float64
	// CPUUtil is the (small) CPU cost of driving the disk, in cores.
	CPUUtil float64

	ops float64
}

// NewDiskSpeed returns the standard configuration.
func NewDiskSpeed() *DiskSpeed {
	return &DiskSpeed{OpsPerSecond: 500, CPUUtil: 0.6}
}

// Name implements CPUWorkload.
func (d *DiskSpeed) Name() string { return "DiskSpeed" }

// Tick implements CPUWorkload.
func (d *DiskSpeed) Tick(s Step, res Resources) Usage {
	d.ops += d.OpsPerSecond * s.Sec
	util := d.CPUUtil
	if util > res.Cores {
		util = res.Cores
	}
	return Usage{Util: util, IPC: 0.3, StallFrac: 0.90}
}

// Ops returns the number of disk operations completed.
func (d *DiskSpeed) Ops() float64 { return d.ops }

// Elastic is a best-effort batch consumer: it soaks up every core it is
// granted. SmartHarvest loans harvested cores to a VM like this one;
// the core-seconds it absorbs measure harvesting yield.
type Elastic struct {
	coreSeconds float64
}

// NewElastic returns an Elastic consumer.
func NewElastic() *Elastic { return &Elastic{} }

// Name implements CPUWorkload.
func (e *Elastic) Name() string { return "Elastic" }

// Tick implements CPUWorkload.
func (e *Elastic) Tick(s Step, res Resources) Usage {
	e.coreSeconds += res.Cores * s.Sec
	return Usage{Util: res.Cores, IPC: 1.0, StallFrac: 0.15}
}

// CoreSeconds returns the total core-seconds consumed.
func (e *Elastic) CoreSeconds() float64 { return e.coreSeconds }
