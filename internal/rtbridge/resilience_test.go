package rtbridge

import (
	"net"
	"testing"
	"time"
)

func TestClientReadTimeoutUnblocksDeadServer(t *testing.T) {
	// A "server" that accepts and then hangs forever — what a SIGKILLed
	// process looks like from the client side (no FIN until the kernel
	// gives up, which can be minutes).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	n, err := DialNode(l.Addr().String(), 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetReadTimeout(100 * time.Millisecond)

	select {
	case <-n.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("reader loop still blocked on a dead server")
	}
}
