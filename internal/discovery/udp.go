package discovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// The UDP transport carries discovery over real sockets — the paper's
// "during DHCP negotiation, or afterward using protocols like UPnP"
// stage (§3.1). A device sends its DM as a JSON datagram to each
// candidate provider address (limited flooding in the discovery zone);
// every PVN-supporting responder answers with an offer datagram.

// maxDatagram bounds discovery datagrams.
const maxDatagram = 64 << 10

// ServeUDP answers discovery messages on the connection until it is
// closed. now supplies offer-expiry time. Malformed datagrams are
// ignored (hostile networks get to send garbage).
func ServeUDP(conn net.PacketConn, policy *ProviderPolicy, now func() time.Duration) error {
	buf := make([]byte, maxDatagram)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("discovery: udp read: %w", err)
		}
		dm, err := decodeDM(buf[:n])
		if err != nil {
			continue
		}
		offer := policy.HandleDM(dm, now())
		if offer == nil {
			continue // unsupported: silence, like a PVN-free network
		}
		out, err := json.Marshal(offer)
		if err != nil {
			continue
		}
		conn.WriteTo(out, addr)
	}
}

// DiscoverUDP floods the DM to every candidate address and collects the
// offers that arrive within the wait window. Unreachable or silent
// addresses simply contribute nothing — exactly the paper's model of a
// discovery zone with mixed support.
func DiscoverUDP(conn net.PacketConn, dm *DM, candidates []net.Addr, wait time.Duration) ([]*Offer, error) {
	payload, err := json.Marshal(dm)
	if err != nil {
		return nil, fmt.Errorf("discovery: marshal DM: %w", err)
	}
	for _, addr := range candidates {
		conn.WriteTo(payload, addr)
	}
	deadline := time.Now().Add(wait) //lint:allow nondet kernel socket deadline: SetReadDeadline needs absolute wall time
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})

	var offers []*Offer
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return offers, nil // window closed
			}
			if errors.Is(err, net.ErrClosed) {
				return offers, nil
			}
			return offers, fmt.Errorf("discovery: udp read: %w", err)
		}
		offer, err := decodeOffer(buf[:n])
		if err != nil {
			continue
		}
		offers = append(offers, offer)
	}
}

// decodeDM parses one DM datagram. Undecodable bytes and a DM naming
// no device are both rejected.
func decodeDM(b []byte) (*DM, error) {
	var dm DM
	if err := json.Unmarshal(b, &dm); err != nil {
		return nil, fmt.Errorf("discovery: decode DM: %w", err)
	}
	if dm.DeviceID == "" {
		return nil, errors.New("discovery: DM without device ID")
	}
	return &dm, nil
}

// decodeOffer parses one offer datagram. Undecodable bytes and an
// offer without an ID are both rejected.
func decodeOffer(b []byte) (*Offer, error) {
	var offer Offer
	if err := json.Unmarshal(b, &offer); err != nil {
		return nil, fmt.Errorf("discovery: decode offer: %w", err)
	}
	if offer.OfferID == "" {
		return nil, errors.New("discovery: offer without ID")
	}
	return &offer, nil
}
