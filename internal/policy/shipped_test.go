package policy

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShippedPolicyFileParses keeps the one policy file the tree ships,
// examples/bodyarea/bodyarea.pol (embedded by that example), valid.
func TestShippedPolicyFileParses(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "bodyarea", "bodyarea.pol"))
	if err != nil {
		t.Fatalf("shipped policy file: %v", err)
	}
	f, err := Parse(string(b))
	if err != nil {
		t.Fatalf("bodyarea.pol does not parse: %v", err)
	}
	if len(f.Obligations) < 3 || len(f.Authorizations) < 1 {
		t.Errorf("bodyarea.pol content shrank: %d obligations, %d authorizations",
			len(f.Obligations), len(f.Authorizations))
	}
	for _, o := range f.Obligations {
		if err := o.validate(); err != nil {
			t.Errorf("obligation %q invalid: %v", o.name, err)
		}
	}
}
