package lint

import (
	"strings"
	"testing"
)

// TestRepoCleanAtHead is the linter eating its own dog food: the whole
// module at HEAD must produce zero findings under the default config.
// Every deliberate wall-clock or panic site carries a //lint:allow with
// a reason; anything this test prints is either a new contract
// violation or a missing annotation — fix the code, or annotate it and
// defend the reason in review.
func TestRepoCleanAtHead(t *testing.T) {
	// The sweep is only as strong as its analyzer set: exactly these
	// five must be registered, the flow-sensitive lockorder included, or
	// this test silently weakens.
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{"nondet", "failpolicy", "unlockedfield", "errdrop", "lockorder"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Analyzers() = %v, want %v", names, want)
	}
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "pvn" {
		t.Fatalf("module = %q, want pvn", module)
	}
	pkgs, err := Load(root, module, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; loader is missing the tree", len(pkgs))
	}
	for _, d := range Run(DefaultConfig(), pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}
