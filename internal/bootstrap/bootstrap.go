// Package bootstrap implements the proxy bootstrap mechanism of
// §III-C: a registry of proxy factories keyed by device type. The
// service reacting to "New Member" events (the bus's member manager)
// asks the registry for the appropriate concrete proxy logic for each
// newly admitted service; the registry "must therefore be initialised
// on the creation of the event bus".
package bootstrap

import (
	"fmt"
	"sync"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/proxy"
)

// Factory builds the device-specific half of a proxy for a member.
// The name is the device's self-reported name from its join request
// (actuator proxies use it to subscribe on the device's behalf).
type Factory func(member ident.ID, name string) proxy.Device

// Registry maps device types to proxy factories. The zero value is not
// usable; call NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry: every device type gets the
// pass-through generic proxy until a factory is registered for it.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register installs a factory for a device type, replacing any
// previous registration.
func (r *Registry) Register(deviceType string, f Factory) error {
	if deviceType == "" {
		return fmt.Errorf("bootstrap: empty device type")
	}
	if f == nil {
		return fmt.Errorf("bootstrap: nil factory for %q", deviceType)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[deviceType] = f
	return nil
}

// Make builds the device logic for a member of the given type, falling
// back to the generic pass-through proxy, "a mere forwarding
// mechanism" (§III-B), when the type is unknown.
func (r *Registry) Make(deviceType string, member ident.ID, name string) proxy.Device {
	r.mu.RLock()
	f, ok := r.factories[deviceType]
	r.mu.RUnlock()
	if ok {
		return f(member, name)
	}
	return &proxy.GenericDevice{}
}
