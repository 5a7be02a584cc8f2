package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodCfg = `
pvnc ctl-test
owner alice
device 10.0.0.5
middlebox pii pii-detect mode=block
chain c pii
policy 100 match proto=tcp dport=80 via=c rate=1.5mbps action=forward
policy 0 match any action=forward
`

func writeCfg(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.pvnc")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCtl(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestValidateOK(t *testing.T) {
	path := writeCfg(t, goodCfg)
	out, _, err := runCtl(t, "validate", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ctl-test: OK") {
		t.Fatalf("output %q", out)
	}
}

func TestValidateViolations(t *testing.T) {
	path := writeCfg(t, "pvnc x\nowner a\ndevice 1.2.3.4\npolicy 10 match dport=80 action=forward")
	_, errOut, err := runCtl(t, "validate", path)
	if err == nil {
		t.Fatal("invalid config validated")
	}
	if !strings.Contains(errOut, "catch-all") {
		t.Fatalf("stderr %q", errOut)
	}
}

// TestValidateChecksBoxes: validate holds each middlebox line to the
// built-in registry, so a config key the type does not declare or a type
// no host registers fails here, named as the host's NACK names it, and
// not at deploy time.
func TestValidateChecksBoxes(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"middlebox pii pii-detect mode=block secret=hunter2", `instantiate pii: middlebox: unknown config key "secret" for pii-detect`},
		{"middlebox pii pii-sniffer mode=block", `instantiate pii: middlebox: unknown middlebox type: "pii-sniffer"`},
	} {
		cfg := strings.Replace(goodCfg, "middlebox pii pii-detect mode=block", c.line, 1)
		_, errOut, err := runCtl(t, "validate", writeCfg(t, cfg))
		if err == nil {
			t.Errorf("%q validated", c.line)
		}
		if !strings.Contains(errOut, c.want) {
			t.Errorf("%q: stderr %q, want %q", c.line, errOut, c.want)
		}
	}
	cfg := strings.Replace(goodCfg, "mode=block", "mode=block secrets=hunter2", 1)
	if out, errOut, err := runCtl(t, "validate", writeCfg(t, cfg)); err != nil || !strings.Contains(out, "ctl-test: OK") {
		t.Errorf("declared key secrets= refused: out %q stderr %q err %v", out, errOut, err)
	}
}

func TestCompileOutput(t *testing.T) {
	path := writeCfg(t, goodCfg)
	out, _, err := runCtl(t, "compile", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"instantiate pii", "chain c", "rate=1500000 bps", "prio=100", "mbx:alice/c", "output:1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compile output missing %q:\n%s", want, out)
		}
	}
}

func TestEstimateHashFormat(t *testing.T) {
	path := writeCfg(t, goodCfg)
	out, _, err := runCtl(t, "estimate", path)
	if err != nil || !strings.Contains(out, "middleboxes: 1") {
		t.Fatalf("estimate %q err=%v", out, err)
	}
	h1, _, err := runCtl(t, "hash", path)
	if err != nil || len(strings.TrimSpace(h1)) != 64 {
		t.Fatalf("hash %q err=%v", h1, err)
	}
	formatted, _, err := runCtl(t, "format", path)
	if err != nil {
		t.Fatal(err)
	}
	// Formatting the formatted output is a fixed point.
	path2 := writeCfg(t, formatted)
	formatted2, _, _ := runCtl(t, "format", path2)
	if formatted != formatted2 {
		t.Fatal("format not idempotent via CLI")
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := runCtl(t, "validate"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, _, err := runCtl(t, "validate", "/nonexistent/file.pvnc"); err == nil {
		t.Fatal("unreadable file accepted")
	}
	path := writeCfg(t, goodCfg)
	if _, _, err := runCtl(t, "explode", path); err == nil {
		t.Fatal("unknown command accepted")
	}
	bad := writeCfg(t, "gibberish line")
	if _, _, err := runCtl(t, "validate", bad); err == nil {
		t.Fatal("unparseable config accepted")
	}
}
