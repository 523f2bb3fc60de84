package bootstrap

import (
	"testing"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/proxy"
)

type fakeDevice struct {
	proxy.GenericDevice
	member ident.ID
	name   string
}

func TestRegistryMakeUsesFactory(t *testing.T) {
	r := NewRegistry()
	err := r.Register("hr-sensor", func(member ident.ID, name string) proxy.Device {
		return &fakeDevice{member: member, name: name}
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := r.Make("hr-sensor", ident.New(7), "hr-1")
	fd, ok := dev.(*fakeDevice)
	if !ok {
		t.Fatalf("got %T", dev)
	}
	if fd.member != ident.New(7) || fd.name != "hr-1" {
		t.Errorf("factory args = %s %q", fd.member, fd.name)
	}
}

func TestRegistryFallback(t *testing.T) {
	r := NewRegistry()
	dev := r.Make("unknown-type", ident.New(1), "x")
	if _, ok := dev.(*proxy.GenericDevice); !ok {
		t.Fatalf("fallback produced %T", dev)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func(ident.ID, string) proxy.Device { return nil }); err == nil {
		t.Error("empty device type accepted")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// namedDevice is a pass-through device that reports the name it was
// built with, so a test can tell which factory made it.
type namedDevice struct {
	proxy.GenericDevice
	name string
}

func (d *namedDevice) DeviceType() string { return d.name }

func TestRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	_ = r.Register("t", func(ident.ID, string) proxy.Device { return &namedDevice{name: "v1"} })
	_ = r.Register("t", func(ident.ID, string) proxy.Device { return &namedDevice{name: "v2"} })
	if dev := r.Make("t", 1, ""); dev.DeviceType() != "v2" {
		t.Errorf("got %s", dev.DeviceType())
	}
}
