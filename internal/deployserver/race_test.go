package deployserver

import (
	"fmt"
	"testing"
	"time"

	"pvn/internal/discovery"
	"pvn/internal/packet"
)

// TestDeployRacesChainTraffic: subscribers attach and detach while a
// resident's frames cross its chain on the pipeline's workers. Deploys
// run under Server.mu and workers never take it, so the Runtime's own
// lock is all that orders BuildChainIn's map write against
// ExecuteChain's map read. Needs -race to mean anything; without
// the lock it reports the two, or the Go runtime aborts on the
// concurrent map access.
func TestDeployRacesChainTraffic(t *testing.T) {
	now := time.Duration(0)
	s, dp := mirroredServer(t, &now)
	s.Provider.Supported["tracker-block"] = 0
	const src = "pvnc %s\nowner %s\ndevice %s\n" +
		"middlebox trk tracker-block domains=ads.example\nchain c trk\n" +
		"policy 100 match proto=tcp dport=80 via=c action=forward\npolicy 0 match any action=forward\n"
	deploy := func(dev, addr string) {
		req := &discovery.DeployRequest{DeviceID: dev, PVNCSource: fmt.Sprintf(src, dev, dev, addr)}
		if resp := s.HandleDeploy(req); !resp.OK {
			t.Errorf("deploy %s: %s", dev, resp.Reason)
		}
	}
	deploy("resident", "10.0.0.5")
	now = 50 * time.Millisecond // the resident has booted; the clock stays put while workers read it

	ip := &packet.IPv4{Src: packet.MustParseIPv4("10.0.0.5"), Dst: packet.MustParseIPv4("93.184.216.34"), Protocol: packet.IPProtoTCP}
	tcp := &packet.TCP{SrcPort: 40000, DstPort: 80}
	tcp.SetNetworkLayerForChecksum(ip)
	frame, err := packet.SerializeToBytes(ip, tcp, packet.Payload("GET / HTTP/1.1\r\nHost: example.org\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}

	const frames, subscribers = 20000, 200
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < subscribers; i++ {
			dev := fmt.Sprintf("sub%d", i)
			deploy(dev, fmt.Sprintf("10.1.%d.%d", i/200, 1+i%200))
			if _, _, err := s.Teardown(dev); err != nil {
				t.Errorf("teardown %s: %v", dev, err)
			}
		}
	}()
	for i := 0; i < frames; i++ {
		dp.Submit(frame, 0)
	}
	<-churned
	dp.Drain()

	st := dp.Stats().Total()
	if st.Outputs != frames || st.ChainErrs != 0 {
		t.Fatalf("resident's chain forwarded %d of %d frames (%d chain errors)", st.Outputs, frames, st.ChainErrs)
	}
	if n := len(s.Runtime.InstanceIDs()); n != 1 {
		t.Fatalf("%d instances left after the churn, want the resident's 1", n)
	}
}
