//go:build goexperiment.synctest

// The go.mod directive keeps the pre-1.23 asynchronous timer channels,
// which synctest.Run refuses.
//go:debug asynctimerchan=0

package netrepl

import (
	"testing"
	"testing/synctest"
	"time"

	"opdelta/internal/obs"
)

// TestSynctestApplierWakesOnEnqueue: a DELTA enqueued on an idle
// applier's topic is applied while the bubble's clock stands still —
// the append itself wakes the applier, no timer has to fire. Run it with
// GOEXPERIMENT=synctest.
func TestSynctestApplierWakesOnEnqueue(t *testing.T) {
	synctest.Run(func() {
		src := newReplSource(t)
		src.workload(t, 12, 0)
		want := src.maxSeq(t)
		encs, _ := encodedOps(t, src)

		srv := NewServer(ServerConfig{Dir: t.TempDir()})
		defer srv.Shutdown()
		topic, err := srv.Topic("src-s")
		if err != nil {
			t.Error(err)
			return
		}
		wh := newReplWarehouse(t, src.schema)
		ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- ap.Run(stop) }()
		defer func() {
			close(stop)
			if err := <-done; err != nil {
				t.Error(err)
			}
		}()
		synctest.Wait() // the applier found the topic empty and waits

		start := time.Now()
		if ack, err := srv.enqueue(topic, deltaPayload(0, encs), obs.TraceContext{}, 0); err != nil || ack != want {
			t.Errorf("enqueue acked %d, %v; want %d", ack, err, want)
			return
		}
		synctest.Wait()
		if got, err := wh.integ.Applied.MaxSeq(); err != nil || got != want {
			t.Errorf("applied through %d, %v; the topic holds %d", got, err, want)
		}
		if waited := time.Since(start); waited != 0 {
			t.Errorf("the bubble clock moved %v before the ops applied", waited)
		}
	})
}
