package sensor

import (
	"errors"
	"sync"
	"time"

	"github.com/amuse/smc/internal/client"
)

// Publisher is the slice of the client library a simulated device
// needs.
type Publisher interface {
	PublishRaw(data []byte) error
}

// UnreliablePublisher is optionally implemented by publishers that can
// send without awaiting acknowledgement (client.Client does); sims
// configured WithUnreliable use it when available.
type UnreliablePublisher interface {
	PublishRawUnreliable(data []byte) error
}

// Sim is a simulated sensor device: it samples its waveform on a fixed
// period and transmits each sample in the device-native encoding — the
// periodic, unacknowledged style of a real body sensor (§III-B notes a
// temperature sensor "may periodically transmit data and not require
// any acknowledgement prior to the next reading"; acknowledgement is
// still performed by the transport hop, absorbed by the proxy).
type Sim struct {
	kind       Kind
	wave       *Waveform
	interval   time.Duration
	pub        Publisher
	clock      func() time.Time
	unreliable bool

	mu       sync.Mutex
	seq      uint16
	sent     uint64
	failures uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// SimOption configures a Sim.
type SimOption func(*Sim)

// WithUnreliable makes the sim transmit without awaiting
// acknowledgements (§III-B's periodic sensor that "may periodically
// transmit data and not require any acknowledgement prior to the next
// reading"). Requires a publisher implementing UnreliablePublisher;
// otherwise readings fall back to the acknowledged path.
func WithUnreliable(on bool) SimOption {
	return func(s *Sim) { s.unreliable = on }
}

// NewSim builds a simulated sensor publishing through pub every
// interval.
func NewSim(kind Kind, wave *Waveform, interval time.Duration, pub Publisher, opts ...SimOption) *Sim {
	s := &Sim{
		kind:     kind,
		wave:     wave,
		interval: interval,
		pub:      pub,
		clock:    time.Now,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Start launches the sampling loop.
func (s *Sim) Start() {
	go s.loop()
}

// Stop halts the device and waits for the loop to exit.
func (s *Sim) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Sent reports how many readings were transmitted.
func (s *Sim) Sent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Failures reports transmissions that errored (quench suppressions are
// not failures).
func (s *Sim) Failures() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// EmitOnce samples and transmits a single reading immediately. Useful
// for step-driven tests.
func (s *Sim) EmitOnce() error {
	s.mu.Lock()
	s.seq++
	r := Reading{
		Kind:   s.kind,
		Seq:    s.seq,
		Millis: s.clock().UnixMilli(),
		Value:  s.wave.next(),
	}
	s.mu.Unlock()
	var err error
	if up, ok := s.pub.(UnreliablePublisher); ok && s.unreliable {
		err = up.PublishRawUnreliable(EncodeReading(r))
	} else {
		err = s.pub.PublishRaw(EncodeReading(r))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.sent++
	case errors.Is(err, client.ErrQuenched):
		// Quenched: the radio stayed off; not a failure.
	default:
		s.failures++
	}
	return err
}

func (s *Sim) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = s.EmitOnce()
		case <-s.stop:
			return
		}
	}
}

// ActuatorSim is a simulated actuator device: it decodes native
// commands pushed by its proxy and records them.
type ActuatorSim struct {
	name string

	mu         sync.Mutex
	actions    []Command
	decodeErrs uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewActuatorSim builds the simulated actuator.
func NewActuatorSim(name string) *ActuatorSim {
	return &ActuatorSim{
		name: name,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Run consumes native commands from the client's data stream until
// stopped. Call in a goroutine or use Start.
func (a *ActuatorSim) Start(data <-chan []byte) {
	go func() {
		defer close(a.done)
		for {
			select {
			case buf, ok := <-data:
				if !ok {
					return // client shut down
				}
				cmd, err := DecodeCommand(buf)
				a.mu.Lock()
				if err != nil {
					a.decodeErrs++
				} else {
					a.actions = append(a.actions, cmd)
				}
				a.mu.Unlock()
			case <-a.stop:
				return
			}
		}
	}()
}

// Stop halts the actuator loop.
func (a *ActuatorSim) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

// Actions snapshots the executed commands.
func (a *ActuatorSim) Actions() []Command {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Command, len(a.actions))
	copy(out, a.actions)
	return out
}
