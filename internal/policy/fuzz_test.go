package policy

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary text to the policy parser, seeded with the
// policy file the tree ships. Nothing may panic, and every obligation
// and authorization Parse accepts must pass its own Validate.
func FuzzParse(f *testing.F) {
	shipped, err := os.ReadFile(filepath.Join("..", "..", "examples", "bodyarea", "bodyarea.pol"))
	if err != nil {
		f.Fatalf("shipped policy file: %v", err)
	}
	f.Add(string(shipped))
	f.Add("")
	f.Add(`obligation o { on type = "a" do log("x") }`)
	f.Add(`authorization a { effect allow subject "*" action subscribe target value >= 1.5 }`)
	f.Add(`obligation o { on x != 0x }`)

	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		for _, o := range file.Obligations {
			if err := o.validate(); err != nil {
				t.Fatalf("Parse accepted obligation %q that fails Validate: %v", o.Name, err)
			}
		}
		for _, a := range file.Authorizations {
			if err := a.validate(); err != nil {
				t.Fatalf("Parse accepted authorization %q that fails Validate: %v", a.Name, err)
			}
		}
	})
}
