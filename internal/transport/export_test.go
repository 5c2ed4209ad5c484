package transport

import (
	"net"
	"sync"
	"time"
)

// The monitor's frame kinds, for the tests outside the package.
const (
	MsgCollect     = msgCollect
	MsgCollectResp = msgCollectResp
	MsgPush        = msgPush
	MsgPushAck     = msgPushAck
)

// pullModel is one pull with no work in between: Request followed at once
// by Receive.
func pullModel(p *PullClient, dst []float64) (wireBytes int64, err error) {
	p.Request()
	return p.Receive(dst)
}

// NewRecordingLocalHub is NewLocalHub with every worker server's
// connections recorded. The returned function counts the frames of a kind
// the servers have read and written so far.
func NewRecordingLocalHub(latency func(i, j int) time.Duration) (*Hub, func(kind uint8) int) {
	pn := &pipeNet{listeners: make(map[string]*pipeListener)}
	return newRecordingHub(pn.listen, pn.dial, latency)
}

// newRecordingHub is NewRecordingLocalHub over any carrier: listen opens
// each worker's listener and dial reaches it.
func newRecordingHub(listen func() (net.Listener, error), dial dialer, latency func(i, j int) time.Duration) (*Hub, func(kind uint8) int) {
	var mu sync.Mutex
	var lns []*recordingListener
	recording := func() (net.Listener, error) {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		rl := &recordingListener{Listener: ln}
		mu.Lock()
		lns = append(lns, rl)
		mu.Unlock()
		return rl, nil
	}
	frames := func(kind uint8) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, l := range lns {
			n += l.frames(kind)
		}
		return n
	}
	return &Hub{listen: recording, dial: dial, latency: latency}, frames
}
