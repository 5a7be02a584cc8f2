package pki

import (
	"bytes"
	"crypto/ed25519"
	"testing"
)

// FuzzDecodeCertificate: certificate blobs arrive in TLS Certificate
// messages a provider (or an interceptor) writes. DecodeCertificate and
// DecodeChain must never panic, must enforce the key size, and whatever
// they accept must re-Encode to bytes that decode to the same
// certificate: Encode is the canonical form signatures are checked over.
func FuzzDecodeCertificate(f *testing.F) {
	kp, err := GenerateKey(NewDeterministicRand(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(NewRootCA("Root", kp, 0, 1000).Cert.Encode())
	f.Add([]byte(`{"serial":1,"subject":"x","public_key":"AAAA"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCertificate(data)
		chain, chainErr := DecodeChain([][]byte{data, data})
		if (err == nil) != (chainErr == nil) {
			t.Fatalf("DecodeCertificate err %v, DecodeChain of the same blob err %v", err, chainErr)
		}
		if err != nil {
			return
		}
		if len(chain) != 2 || !bytes.Equal(chain[0].Encode(), c.Encode()) {
			t.Fatal("DecodeChain disagrees with DecodeCertificate")
		}
		if len(c.PublicKey) != ed25519.PublicKeySize {
			t.Fatalf("accepted a %d-byte public key", len(c.PublicKey))
		}
		enc := c.Encode()
		again, err := DecodeCertificate(enc)
		if err != nil {
			t.Fatalf("accepted certificate failed re-decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("certificate changed across Encode/Decode round trip")
		}
	})
}
