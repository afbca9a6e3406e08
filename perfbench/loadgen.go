package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Op is one client operation's clock readings. Due is when an open-loop
// schedule wanted it sent (equal to Send for a closed loop), Send when
// the request left, Done when its answer was read.
type Op struct {
	Due, Send, Done time.Time
	OK              bool
}

// Latency is the time from due to answer: an open loop counts the wait
// a stall imposes on every request scheduled behind it.
func (o Op) Latency() time.Duration { return o.Done.Sub(o.Due) }

// OpenLoop schedules operation i at Start + i·Interval.
type OpenLoop struct {
	Start    time.Time
	Interval time.Duration
}

// Due is operation i's scheduled send time.
func (o OpenLoop) Due(i int) time.Time { return o.Start.Add(time.Duration(i) * o.Interval) }

// SenderLag splits each operation's wait before sending into the part
// the server caused and the generator's own, in ms. One connection
// sends in order, so operation i could leave at max(due_i, done_{i-1});
// anything later than that is the generator oversleeping or being
// descheduled.
func SenderLag(ops []Op) []float64 {
	lag := make([]float64, len(ops))
	for i, o := range ops {
		ready := o.Due
		if i > 0 && ops[i-1].Done.After(ready) {
			ready = ops[i-1].Done
		}
		if d := o.Send.Sub(ready); d > 0 {
			lag[i] = ms(d)
		}
	}
	return lag
}

// Limits past which the generator, not the server, set the pace: beyond
// what a descheduled thread on a busy two-vCPU box explains.
const (
	maxLagMedianMS = 1
	maxLagTailMS   = 10
)

// GeneratorBehind reports whether the generator's own lateness (ms)
// exceeds what its timer explains: a median above maxLagMedianMS or a
// tail above maxLagTailMS.
func GeneratorBehind(lag []float64) bool {
	d := NewDist(lag)
	tail, _ := d.Tail(0.99)
	return d.Median() > maxLagMedianMS || tail > maxLagTailMS
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMS maps successful operations to their latency in ms.
func latenciesMS(ops []Op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.OK {
			out = append(out, ms(o.Latency()))
		}
	}
	return out
}

// Sleeper wakes a generator goroutine at a given time, to within tens
// of microseconds, without holding a scheduler slot while it waits.
// time.Sleep cannot: in an otherwise idle Go process a timer wakes
// through the network poller, whose epoll timeout is rounded up to whole
// milliseconds, and a generator that oversleeps a sub-millisecond gap
// on every send pushes each later request behind schedule. nanosleep in
// a syscall keeps the goroutine's P until the runtime's monitor takes it
// back, up to milliseconds, which stalls the server on a 2-vCPU box.
// A Linux timerfd read through the poller does neither.
type Sleeper struct {
	fd int
	f  *os.File
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1

// NewSleeper opens a non-blocking monotonic timerfd.
func NewSleeper() (*Sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &Sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// Until blocks until t (returns at once if t has passed).
func (s *Sleeper) Until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

// Close releases the timerfd.
func (s *Sleeper) Close() error { return s.f.Close() }
