// Body-area network scenario (the paper's motivating deployment, §I):
// four body sensors stream native readings into the cell; the proxies
// translate them into events; obligation policies watch for a
// tachycardia episode and command a defibrillator to run analysis; a
// deny rule stops sensors from commanding actuators directly.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"
	"time"

	smc "github.com/amuse/smc"
	"github.com/amuse/smc/internal/sensor"
)

// policies is the cell's Ponder-lite policy file, shipped beside this
// program.
//
//go:embed bodyarea.pol
var policies string

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	secret := []byte("patient-7-secret")
	net := smc.NewNetwork(smc.LinkUSB)
	defer net.Close()

	attach := func(id uint64) smc.Transport {
		tr, err := net.Attach(smc.ID(id))
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	cell, err := smc.NewCell(attach(0x1001), attach(0x1002), smc.Config{
		Cell:       "patient-7",
		Secret:     secret,
		PolicyText: policies,
	})
	if err != nil {
		return err
	}
	cell.Start()
	defer cell.Close()
	fmt.Println("patient-7 cell up with", len(cell.Policy.Obligations()), "obligation policies")

	// The defibrillator joins; its proxy subscribes to actuate events
	// addressed to it on the device's behalf (§III-B).
	defib, err := smc.JoinCellWithRetry(context.Background(), attach(0x2001), smc.DeviceConfig{
		Type: "defibrillator", Name: "defib-1", Secret: secret,
	}, smc.RetryConfig{})
	if err != nil {
		return err
	}
	defer defib.Close()
	act := sensor.NewActuatorSim("defib-1")
	act.Start(defib.Client.Data())
	defer act.Stop()
	fmt.Println("defibrillator ready")

	// Four body sensors join and stream native readings. The heart
	// rate waveform is scripted with a tachycardia episode starting
	// at sample 6.
	type sensorSpec struct {
		kind sensor.Kind
		dt   string
		name string
		wave *sensor.Waveform
	}
	specs := []sensorSpec{
		{sensor.KindHeartRate, sensor.DeviceTypeHeartRate, "hr-1",
			sensor.HeartRateWaveform(1, sensor.WithEpisode(6, 4, 130))},
		{sensor.KindSpO2, sensor.DeviceTypeSpO2, "spo2-1", sensor.SpO2Waveform(2)},
		{sensor.KindTemperature, sensor.DeviceTypeTemperature, "temp-1", sensor.TemperatureWaveform(3)},
		{sensor.KindBPSystolic, sensor.DeviceTypeBP, "bp-1", sensor.BPSystolicWaveform(4)},
	}

	var sims []*sensor.Sim
	for i, spec := range specs {
		dev, err := smc.JoinCellWithRetry(context.Background(), attach(uint64(0x3001+i)), smc.DeviceConfig{
			Type: spec.dt, Name: spec.name, Secret: secret,
		}, smc.RetryConfig{})
		if err != nil {
			return fmt.Errorf("join %s: %w", spec.name, err)
		}
		defer dev.Close()
		sims = append(sims, sensor.NewSim(spec.kind, spec.wave, 150*time.Millisecond, dev.Client))
	}
	fmt.Printf("%d sensors joined; cell members: %d\n", len(sims), cell.Discovery.Stats().Members)

	// A nurse's monitor watches translated readings and alarms.
	monitor, err := smc.JoinCellWithRetry(context.Background(), attach(0x4001), smc.DeviceConfig{
		Type: "generic", Name: "nurse-monitor", Secret: secret,
	}, smc.RetryConfig{})
	if err != nil {
		return err
	}
	defer monitor.Close()
	if err := monitor.Client.Subscribe(smc.NewFilter().WhereType("alarm")); err != nil {
		return err
	}

	for _, s := range sims {
		s.Start()
	}
	fmt.Println("sensors streaming; waiting for the scripted tachycardia episode...")

	alarm, err := monitor.Client.NextEvent(20 * time.Second)
	if err != nil {
		return fmt.Errorf("no alarm observed: %w", err)
	}
	src, _ := alarm.Get("source")
	fmt.Printf("ALARM received at monitor: source=%s\n", src)
	alarm.Release() // delivered events are pooled borrowing decodes

	// The defibrillator should receive its analyse command shortly.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(act.Actions()) == 0 {
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range sims {
		s.Stop()
	}
	actions := act.Actions()
	if len(actions) == 0 {
		return fmt.Errorf("defibrillator never commanded")
	}
	name, _ := sensor.ActionForOpcode(actions[0].Opcode)
	fmt.Printf("defibrillator executed: %s (total commands: %d)\n", name, len(actions))

	st := cell.Bus.Stats()
	fmt.Printf("bus stats: published=%d matched=%d denied=%d\n",
		st.Published, st.Matched, st.AuthDenied)
	return nil
}
