package event

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		typ  Type
		want string
	}{
		{Int(42), TypeInt, "42"},
		{Int(-7), TypeInt, "-7"},
		{Float(3.5), TypeFloat, "3.5"},
		{Str("hi"), TypeString, `"hi"`},
		{Bool(true), TypeBool, "true"},
		{Bool(false), TypeBool, "false"},
		{Bytes([]byte{1, 2}), TypeBytes, "bytes[2]"},
	}
	for _, c := range cases {
		if c.v.Type() != c.typ {
			t.Errorf("%v type = %v, want %v", c.v, c.v.Type(), c.typ)
		}
		if c.v.String() != c.want {
			t.Errorf("String = %q, want %q", c.v.String(), c.want)
		}
		if !c.v.isValid() {
			t.Errorf("%v not valid", c.v)
		}
	}
	var zero Value
	if zero.isValid() {
		t.Error("zero Value is valid")
	}
	if zero.Type().String() != "invalid" {
		t.Errorf("zero type name = %s", zero.Type())
	}
}

func TestValueAccessorsTypeChecked(t *testing.T) {
	v := Int(5)
	if _, ok := v.Float(); ok {
		t.Error("Int value answered Float")
	}
	if _, ok := v.Str(); ok {
		t.Error("Int value answered Str")
	}
	if _, ok := v.Bool(); ok {
		t.Error("Int value answered Bool")
	}
	if _, ok := v.Bytes(); ok {
		t.Error("Int value answered Bytes")
	}
	if i, ok := v.Int(); !ok || i != 5 {
		t.Errorf("Int() = %d, %v", i, ok)
	}
}

func TestBytesValueIsCopied(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 99
	got, _ := v.Bytes()
	if got[0] != 1 {
		t.Error("Bytes constructor did not copy input")
	}
	got[1] = 99
	again, _ := v.Bytes()
	if again[1] != 2 {
		t.Error("Bytes accessor did not copy output")
	}
}

func TestValueEqualStrictTypes(t *testing.T) {
	if Int(1).Equal(Float(1)) {
		t.Error("Int(1) == Float(1) under Equal (strict typing expected)")
	}
	if !Int(1).Equal(Int(1)) || !Float(2.5).Equal(Float(2.5)) {
		t.Error("same-type equality broken")
	}
	if !Bytes([]byte("ab")).Equal(Bytes([]byte("ab"))) {
		t.Error("bytes equality broken")
	}
	if Str("ab").Equal(Bytes([]byte("ab"))) {
		t.Error("string equals bytes")
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	cmp, err := Int(2).compare(Float(2.5))
	if err != nil || cmp != -1 {
		t.Errorf("Int(2) vs Float(2.5) = %d, %v", cmp, err)
	}
	cmp, err = Float(3).compare(Int(3))
	if err != nil || cmp != 0 {
		t.Errorf("Float(3) vs Int(3) = %d, %v", cmp, err)
	}
	if _, err := Int(1).compare(Str("a")); err == nil {
		t.Error("numeric vs string compared")
	}
	if _, err := Bool(true).compare(Str("a")); err == nil {
		t.Error("bool vs string compared")
	}
}

func TestCompareStringsBytesBools(t *testing.T) {
	if c, err := Str("a").compare(Str("b")); err != nil || c != -1 {
		t.Errorf("a vs b = %d, %v", c, err)
	}
	if c, err := Bytes([]byte("b")).compare(Bytes([]byte("a"))); err != nil || c != 1 {
		t.Errorf("bytes b vs a = %d, %v", c, err)
	}
	if c, err := Bool(false).compare(Bool(true)); err != nil || c != -1 {
		t.Errorf("false vs true = %d, %v", c, err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		c1, err1 := Int(a).compare(Int(b))
		c2, err2 := Int(b).compare(Int(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
