package obs

// ring keeps the last len(buf) values pushed into it. It is not safe
// for concurrent use: its owner's mutex guards it.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// held returns the kept values in storage order, not push order.
func (r *ring[T]) held() []T {
	if r.full {
		return r.buf
	}
	return r.buf[:r.next]
}

// newest returns up to n kept values, newest first; n <= 0 means all.
func (r *ring[T]) newest(n int) []T {
	size := len(r.held())
	if n <= 0 || n > size {
		n = size
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
