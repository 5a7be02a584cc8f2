package overlay

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// The encoding/json reading of the wire format, the reference the
// hand-written reader in wire.go is held to.

// decodeEnvelopeReference is DecodeEnvelope as it stood before the
// hand-written reader: encoding/json, the caps, then the same
// validation. It is the oracle FuzzDecodeEnvelope holds the reader to.
func decodeEnvelopeReference(data []byte) (*Envelope, error) {
	if len(data) > maxEnvelopeBytes {
		return nil, fmt.Errorf("overlay: envelope %d bytes exceeds cap %d", len(data), maxEnvelopeBytes)
	}
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("overlay: decode envelope: %w", err)
	}
	if len(e.Peers) > maxPeers {
		return nil, fmt.Errorf("overlay: %d peers exceeds cap %d", len(e.Peers), maxPeers)
	}
	if len(e.Records) > maxRecords {
		return nil, fmt.Errorf("overlay: %d records exceeds cap %d", len(e.Records), maxRecords)
	}
	if len(e.Gossip) > maxGossipClaims {
		return nil, fmt.Errorf("overlay: %d gossip claims exceeds cap %d", len(e.Gossip), maxGossipClaims)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// UnmarshalJSON decodes a JSON string of exactly 2*IDBytes hex digits.
// Escaped strings and null are rejected, and a failed decode leaves id
// unchanged.
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("overlay: ID must be a JSON string")
	}
	digits := b[1 : len(b)-1]
	if len(digits) != 2*IDBytes {
		return fmt.Errorf("overlay: ID must be %d hex digits, got %d", 2*IDBytes, len(digits))
	}
	var v ID
	if _, err := hex.Decode(v[:], digits); err != nil {
		return fmt.Errorf("overlay: bad ID hex: %w", err)
	}
	*id = v
	return nil
}
