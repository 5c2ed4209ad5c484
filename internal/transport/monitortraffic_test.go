package transport_test

import (
	"context"
	"testing"
	"time"

	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/live"
	"netmax/internal/nn"
	"netmax/internal/transport"
)

// TestLiveMonitorTrafficPerPeriod records the frames the live Network
// Monitor sends (collects, pushes) and receives (their answers) in an
// in-memory run. It sends at most one collect and one push per worker per
// period, and every request is answered once. The bound is the same at 60
// and at 600 iterations, which one time report per pulled iteration would
// break. A uniform group runs no monitor loop, so its monitor sends
// nothing.
func TestLiveMonitorTrafficPerPeriod(t *testing.T) {
	const workers = 4
	const ts = 50 * time.Millisecond
	train, test := data.SynthMNIST.Generate(1)
	for _, c := range []struct {
		name    string
		iters   int
		uniform bool
	}{
		{"netmax-60", 60, false},
		{"netmax-600", 600, false},
		{"uniform-600", 600, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			hub, frames := transport.NewRecordingLocalHub(func(i, j int) time.Duration { return 200 * time.Microsecond })
			stats := live.Run(context.Background(), live.Config{
				Spec:        nn.SimMobileNet,
				Part:        data.Uniform(train, workers, 1),
				Test:        test,
				LR:          0.1,
				Batch:       16,
				Seed:        7,
				NetMax:      core.Options{TsSecs: ts.Seconds(), StalePeriods: 3, UniformPolicy: c.uniform},
				Iterations:  c.iters,
				PullTimeout: 2 * time.Second,
			}, hub)
			// Close waits for every server handler, so the last answers
			// are recorded before the count.
			if err := hub.Close(); err != nil {
				t.Fatal(err)
			}
			collects, pushes := frames(transport.MsgCollect), frames(transport.MsgPush)
			sent := collects + pushes
			received := frames(transport.MsgCollectResp) + frames(transport.MsgPushAck)
			periods := int(stats.Elapsed / ts)
			t.Logf("%d iterations per worker in %v (%d periods): %d collects, %d pushes, %d answers",
				c.iters, stats.Elapsed, periods, collects, pushes, received)
			if bound := 2 * workers * periods; sent > bound {
				t.Fatalf("the monitor sent %d frames in %d periods, bound %d", sent, periods, bound)
			}
			if received != sent {
				t.Fatalf("the monitor sent %d frames and received %d answers", sent, received)
			}
			switch {
			case c.uniform && sent != 0:
				t.Fatalf("uniform mode sent %d frames", sent)
			case c.iters == 600 && !c.uniform && collects == 0:
				t.Fatalf("no collect in %v: the run ended before a period", stats.Elapsed)
			}
		})
	}
}
