package policy

import (
	"errors"
	"strings"
	"testing"

	"github.com/amuse/smc/internal/event"
)

func TestParseObligation(t *testing.T) {
	src := `
# heart rate alarm policy
obligation hr-high for "hr-sensor" {
  on type = "reading" && kind = "heart-rate"
  when value > 180.5
  do publish(type = "actuate", target = "defib-1", action = "analyse", joules = 150),
     log("tachycardia"),
     disable("hr-low")
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations) != 1 || len(f.Authorizations) != 0 {
		t.Fatalf("parsed %d/%d", len(f.Obligations), len(f.Authorizations))
	}
	o := f.Obligations[0]
	if o.Name != "hr-high" || o.DeviceType != "hr-sensor" {
		t.Errorf("header = %q for %q", o.Name, o.DeviceType)
	}
	if o.On.Len() != 2 {
		t.Errorf("on constraints = %d", o.On.Len())
	}
	if !o.On.Matches(event.NewTyped("reading").SetStr("kind", "heart-rate")) {
		t.Error("on-filter does not match intended event")
	}
	if o.When == nil || !o.When.Matches(event.New().SetFloat("value", 200)) {
		t.Error("when-filter wrong")
	}
	if o.When.Matches(event.New().SetFloat("value", 100)) {
		t.Error("when-filter matches low value")
	}
	if len(o.Actions) != 3 {
		t.Fatalf("actions = %d", len(o.Actions))
	}
	pub := o.Actions[0]
	if pub.Kind != actionPublish || len(pub.Attrs) != 4 {
		t.Errorf("publish action = %+v", pub)
	}
	if pub.Attrs[3].Name != "joules" || !pub.Attrs[3].Value.Equal(event.Int(150)) {
		t.Errorf("joules attr = %+v", pub.Attrs[3])
	}
	if o.Actions[1].Kind != actionLog || o.Actions[1].Message != "tachycardia" {
		t.Errorf("log action = %+v", o.Actions[1])
	}
	if o.Actions[2].Kind != actionDisable || o.Actions[2].Message != "hr-low" {
		t.Errorf("disable action = %+v", o.Actions[2])
	}
}

func TestParseAuthorization(t *testing.T) {
	src := `
authorization deny-sensor-actuation {
  effect deny
  subject "hr-sensor"
  action publish
  target type = "actuate"
}
authorization allow-all {
  effect allow
  subject *
  action *
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Authorizations) != 2 {
		t.Fatalf("auths = %d", len(f.Authorizations))
	}
	a := f.Authorizations[0]
	if a.Effect != effectDeny || a.Subject != "hr-sensor" || a.Verb != verbPublish {
		t.Errorf("auth = %+v", a)
	}
	if a.Target == nil || !a.Target.Matches(event.NewTyped("actuate")) {
		t.Error("target filter wrong")
	}
	b := f.Authorizations[1]
	if b.Effect != effectAllow || b.Subject != "*" || b.Verb != verbAny || b.Target != nil {
		t.Errorf("auth = %+v", b)
	}
}

func TestParseOperatorsAndLiterals(t *testing.T) {
	src := `
obligation ops {
  on a != "x" && b < 1 && c <= 2 && d > 3 && e >= 4.5 && f prefix "p" && g suffix "s" && h contains "c" && i exists && j = true && k = false && l = -7
  do log("ok")
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	on := f.Obligations[0].On
	if on.Len() != 12 {
		t.Fatalf("constraints = %d", on.Len())
	}
	e := event.New().
		SetStr("a", "y").SetInt("b", 0).SetInt("c", 2).SetInt("d", 4).
		SetFloat("e", 4.5).SetStr("f", "px").SetStr("g", "xs").
		SetStr("h", "aca").SetInt("i", 0).Set("j", event.Bool(true)).
		Set("k", event.Bool(false)).SetInt("l", -7)
	if !on.Matches(e) {
		t.Error("combined filter does not match crafted event")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`oblgation x { }`,                              // bad keyword
		`obligation { on a = 1 do log("x") }`,          // missing name
		`obligation x { do log("x") }`,                 // missing on
		`obligation x { on a = 1 }`,                    // missing do
		`obligation x { on a = 1 do log(x) }`,          // log wants string
		`obligation x { on a = 1 do zap("x") }`,        // unknown action
		`obligation x { on a ~ 1 do log("x") }`,        // bad operator
		`obligation x { on a = do log("x") }`,          // missing literal
		`obligation x for hr { on a = 1 do log("x") }`, // for wants string
		`authorization a { effect maybe subject * action * }`,
		`authorization a { effect allow subject * action frobnicate }`,
		`authorization a { effect allow subject * action * bogus x }`,
		`authorization a { subject * action * }`, // missing effect
		`obligation x { on a = 1 do publish() }`, // empty publish
		`obligation x { on a = 1 do log("unterminated) }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", strings.TrimSpace(src))
		} else if !errors.Is(err, errParse) {
			t.Errorf("non-parse error for %q: %v", src, err)
		}
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	f, err := Parse("# nothing but comments\n\n# more\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations)+len(f.Authorizations) != 0 {
		t.Error("phantom policies")
	}
}

func TestParseMultiplePolicies(t *testing.T) {
	src := `
obligation one { on a = 1 do log("1") }
obligation two { on a = 2 do log("2") }
authorization three { effect deny subject "s" action subscribe }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Obligations) != 2 || len(f.Authorizations) != 1 {
		t.Errorf("parsed %d/%d", len(f.Obligations), len(f.Authorizations))
	}
}

func TestStringEscapes(t *testing.T) {
	f, err := Parse(`obligation e { on a = "l1\nl2\t\"q\"" do log("m") }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cs := f.Obligations[0].On.Constraints()
	want := "l1\nl2\t\"q\""
	if !cs[0].Value.Equal(event.Str(want)) {
		t.Errorf("escaped string = %s", cs[0].Value)
	}
}

func TestValidateDirect(t *testing.T) {
	o := &Obligation{Name: "x", On: event.NewFilter(), Actions: []Action{{Kind: actionLog}}}
	if err := o.validate(); err != nil {
		t.Errorf("valid obligation rejected: %v", err)
	}
	bad := &Obligation{On: event.NewFilter(), Actions: []Action{{Kind: actionLog}}}
	if err := bad.validate(); err == nil {
		t.Error("nameless obligation accepted")
	}
	a := &Authorization{Name: "a", Effect: effectAllow, Subject: "*", Verb: verbAny}
	if err := a.validate(); err != nil {
		t.Errorf("valid authorization rejected: %v", err)
	}
	if err := (&Authorization{Name: "a", Effect: effectAllow, Subject: "*"}).validate(); err == nil {
		t.Error("verbless authorization accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if effectAllow.String() != "allow" || effectDeny.String() != "deny" || Effect(0).String() != "invalid" {
		t.Error("effect strings")
	}
	if verbPublish.String() != "publish" || verbSubscribe.String() != "subscribe" ||
		verbAny.String() != "*" || Verb(0).String() != "invalid" {
		t.Error("verb strings")
	}
}
