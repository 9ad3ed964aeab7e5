package obs

// Heap telemetry: the probe samples runtime.MemStats once per
// conductor span (and once per Trace snapshot), which establishes
// whether a long run's heap is flat — the baseline the 100k-node
// streaming work needs. The determinism split applies per field within
// a sample: *when* samples are taken and their sim-time stamps are
// deterministic; the measured HeapAlloc / HeapInuse / NumGC values
// obviously are not, and Trace.Deterministic zeroes them.

import "fmt"

// memWatchCap bounds the sample buffer; past it, further samples
// overwrite the last slot (keeping first and latest watermarks). One
// sample per span keeps realistic runs far below it.
const memWatchCap = 256

// HeapSample is one heap telemetry observation.
//
//sollint:wire TraceVersion
type HeapSample struct {
	// At is the sample's sim-time stamp (elapsed virtual ns) —
	// deterministic.
	At int64 `json:"at_ns"`
	// HeapAlloc/HeapInuse/NumGC are the runtime.MemStats fields of the
	// same names — diagnostic only.
	HeapAlloc uint64 `json:"heap_alloc"`
	HeapInuse uint64 `json:"heap_inuse"`
	NumGC     uint32 `json:"num_gc"`
}

// HeapLine renders the one-line heap telemetry summary for reports:
// peak watermarks and GC cycles over the run. Empty when there are no
// samples, so untraced reports gain zero lines.
func HeapLine(samples []HeapSample) string {
	if len(samples) == 0 {
		return ""
	}
	var peakAlloc, peakInuse uint64
	for _, hs := range samples {
		if hs.HeapAlloc > peakAlloc {
			peakAlloc = hs.HeapAlloc
		}
		if hs.HeapInuse > peakInuse {
			peakInuse = hs.HeapInuse
		}
	}
	gc := samples[len(samples)-1].NumGC - samples[0].NumGC
	return fmt.Sprintf("heap: peak alloc %s, peak inuse %s, %d gc cycles over %d samples",
		fmtBytes(peakAlloc), fmtBytes(peakInuse), gc, len(samples))
}

// fmtBytes renders a byte count at a human scale.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
