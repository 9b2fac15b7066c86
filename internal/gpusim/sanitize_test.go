//go:build sanitize

package gpusim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// mustPanicConcurrent runs fn and asserts the sanitizer aborted it with
// the concurrent-Device diagnostic.
func mustPanicConcurrent(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the sanitize overlap detector to panic; it did not fire")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "sanitize:") || !strings.Contains(msg, "concurrent") {
			t.Fatalf("panic is not the overlap diagnostic: %q", msg)
		}
	}()
	fn()
}

// TestSanitizeDetectsOverlappingCalls corrupts a Device the way the doc
// comment warns against — overlapping accounting calls on one Device —
// and checks every API pairing is detected. Re-entrant Launch (a kernel
// launching on its own device) is the deterministic way to overlap two
// calls on one goroutine; without the guard it would silently interleave
// two launches' records and cycle accounting.
func TestSanitizeDetectsOverlappingCalls(t *testing.T) {
	newDev := func() *Device { return NewDevice(Config{NumSMs: 2, SharedMemBytes: 1 << 10}) }
	noop := func(b *Block) {}

	mustPanicConcurrent(t, func() {
		dev := newDev()
		dev.Launch("p", "outer", 1, func(b *Block) {
			dev.Launch("p", "inner", 1, noop)
		})
	})
	mustPanicConcurrent(t, func() {
		dev := newDev()
		dev.Launch("p", "outer", 1, func(b *Block) {
			dev.Serialize("p", "inner", 100)
		})
	})
	mustPanicConcurrent(t, func() {
		dev := newDev()
		dev.Launch("p", "outer", 1, func(b *Block) {
			dev.Transfer("p", "inner", 1<<20)
		})
	})
}

// TestSanitizeDetectsConcurrentGoroutines overlaps two goroutines on one
// Device with kernels that rendezvous mid-launch, so the overlap is
// guaranteed, and checks exactly one of them is aborted with the
// diagnostic (the first through the gate proceeds normally).
func TestSanitizeDetectsConcurrentGoroutines(t *testing.T) {
	dev := NewDevice(Config{NumSMs: 2, SharedMemBytes: 1 << 10})
	inside := make(chan struct{})
	release := make(chan struct{})

	var once sync.Once
	panics := make(chan any, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	launch := func(first bool) {
		defer wg.Done()
		defer func() { panics <- recover() }()
		if first {
			dev.Launch("p", "holder", 1, func(b *Block) {
				once.Do(func() { close(inside) })
				<-release
			})
		} else {
			<-inside
			defer close(release)
			dev.Launch("p", "intruder", 1, func(b *Block) {})
		}
	}
	go launch(true)
	go launch(false)
	wg.Wait()
	close(panics)

	var got []string
	for r := range panics {
		if r != nil {
			got = append(got, fmt.Sprint(r))
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one panic from the overlapping launch, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "concurrent Launch") {
		t.Fatalf("panic is not the overlap diagnostic: %q", got[0])
	}
}

// TestSanitizeAllowsSequentialCalls: the guard must not fire on the
// supported pattern — sequential launches.
func TestSanitizeAllowsSequentialCalls(t *testing.T) {
	dev := NewDevice(Config{NumSMs: 2, SharedMemBytes: 1 << 10})
	for i := 0; i < 3; i++ {
		dev.Launch("p", "seq", 8, func(b *Block) { b.Compute(1) })
		dev.Serialize("p", "seq-ser", 10)
		dev.Transfer("p", "seq-xfer", 1<<16)
	}
}
