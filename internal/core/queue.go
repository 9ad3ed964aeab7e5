package core

import "time"

// predQueue is the bounded prediction queue between the Model and
// Actuator loops. When full, pushing drops the oldest entry (stale
// predictions are worth less than fresh ones). The Actuator consumes
// the newest unexpired prediction and discards the rest.
//
// The queue is only ever touched from runtime callbacks; on the virtual
// clock those run on one goroutine, and on the real clock the runtime
// serializes access with its own mutex, so the queue itself is plain.
// It is a fixed-capacity ring over one backing array sized at
// construction; pushing and consuming never allocate. A ring of up to
// inlinePreds entries — the default capacity — lives in the queue
// itself, and the Runtime holds its queue by value, so only a larger
// ring is a heap allocation. A queue must not be copied after init.
type predQueue[P any] struct {
	buf  []Prediction[P] // ring storage, len(buf) == capacity
	head int             // index of the oldest entry
	n    int
	// inline is buf's storage when the capacity is at most inlinePreds.
	inline [inlinePreds]Prediction[P]
	// taken is the scratch slot returned by takeFreshest, so the hot
	// path can hand the actuator a stable pointer without allocating.
	// It is overwritten by the next takeFreshest; TakeAction consumes
	// the prediction synchronously, within the same runtime callback.
	taken Prediction[P]
	// dropped counts predictions evicted by overflow or superseded by a
	// fresher one.
	dropped uint64
	// expired counts predictions discarded because they expired before
	// consumption.
	expired uint64
}

// inlinePreds is the largest ring a queue holds inline: the default
// Schedule.QueueCapacity.
const inlinePreds = 4

// init sizes an empty queue's ring to capacity.
func (q *predQueue[P]) init(capacity int) {
	if capacity <= inlinePreds {
		q.buf = q.inline[:capacity]
	} else {
		q.buf = make([]Prediction[P], capacity)
	}
}

func (q *predQueue[P]) push(p Prediction[P]) {
	if q.n == len(q.buf) {
		q.head++
		if q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
		q.dropped++
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *predQueue[P]) len() int { return q.n }

// takeFreshest removes all queued predictions and returns the most
// recently pushed one that has not expired at time now, or nil if none
// qualifies. Skipped-over and expired entries are counted. The returned
// pointer aliases the queue's scratch slot and is only valid until the
// next takeFreshest call.
func (q *predQueue[P]) takeFreshest(now time.Time) *Prediction[P] {
	var out *Prediction[P]
	for i := q.n - 1; i >= 0; i-- {
		idx := q.head + i
		if idx >= len(q.buf) {
			idx -= len(q.buf)
		}
		p := &q.buf[idx]
		switch {
		case out == nil && !p.Expired(now):
			q.taken = *p
			out = &q.taken
		case p.Expired(now):
			q.expired++
		default:
			q.dropped++
		}
	}
	q.head, q.n = 0, 0
	return out
}
