// Federation scenario (§I: cells "collaborate and integrate with each
// other in peer-to-peer relationships"): a patient's body-area cell
// and the ward's cell run side by side; the ward federates with the
// patient cell so that only alarms — not raw readings — cross the
// boundary, tagged with their origin.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	smc "github.com/amuse/smc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	patientSecret := []byte("patient-7-secret")
	wardSecret := []byte("ward-3-secret")

	net := smc.NewNetwork(smc.LinkWiFi)
	defer net.Close()
	attach := func(id uint64) smc.Transport {
		tr, err := net.Attach(smc.ID(id))
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	// Patient cell with an alarm-raising policy.
	patient, err := smc.NewCell(attach(0x1001), attach(0x1002), smc.Config{
		Cell:   "patient-7",
		Secret: patientSecret,
		PolicyText: `
obligation hr-high {
  on type = "reading" && kind = "heart-rate"
  when value > 180
  do publish(type = "alarm", source = "hr", severity = 3)
}
`,
	})
	if err != nil {
		return err
	}
	patient.Start()
	defer patient.Close()

	// Ward cell.
	ward, err := smc.NewCell(attach(0x2001), attach(0x2002), smc.Config{
		Cell:   "ward-3",
		Secret: wardSecret,
	})
	if err != nil {
		return err
	}
	ward.Start()
	defer ward.Close()
	fmt.Println("patient-7 and ward-3 cells up")

	// The ward imports only alarms from the patient cell.
	link, err := smc.Federate(ward, attach(0x3001), smc.FederateConfig{
		Name:         "ward3-gateway",
		RemoteSecret: patientSecret,
		RemoteCell:   "patient-7",
		Import:       smc.NewFilter().WhereType("alarm"),
	})
	if err != nil {
		return err
	}
	defer link.Close()
	fmt.Printf("federation link up: importing alarms from %q\n", link.Stats().RemoteCell)

	// The nurse's station is a member of the ward cell only.
	nurse, err := smc.JoinCellWithRetry(context.Background(), attach(0x3002), smc.DeviceConfig{
		Type: "generic", Name: "nurse-station", Secret: wardSecret, Cell: "ward-3",
	}, smc.RetryConfig{})
	if err != nil {
		return err
	}
	defer nurse.Close()
	if err := nurse.Client.Subscribe(smc.NewFilter().WhereType("alarm")); err != nil {
		return err
	}

	// Inside the patient cell, readings flow; one crosses the alarm
	// threshold.
	probe := patient.Bus.Local("probe")
	normal := smc.NewTypedEvent("reading").SetStr("kind", "heart-rate").SetFloat("value", 72)
	tachy := smc.NewTypedEvent("reading").SetStr("kind", "heart-rate").SetFloat("value", 195)
	if err := probe.Publish(normal); err != nil {
		return err
	}
	if err := probe.Publish(tachy); err != nil {
		return err
	}
	fmt.Println("patient cell: published readings 72 bpm, 195 bpm")

	// Only the alarm (raised by the patient cell's policy) reaches
	// the nurse, with provenance.
	e, err := nurse.Client.NextEvent(15 * time.Second)
	if err != nil {
		return fmt.Errorf("nurse saw no alarm: %w", err)
	}
	from, _ := e.Get(smc.AttrFederatedFrom)
	src, _ := e.Get("source")
	fmt.Printf("nurse station received alarm: source=%s federated-from=%s\n", src, from)
	e.Release() // delivered events are pooled borrowing decodes

	if _, err := nurse.Client.NextEvent(400 * time.Millisecond); err == nil {
		return fmt.Errorf("raw reading leaked across the federation boundary")
	}
	fmt.Println("raw readings stayed inside the patient cell")
	fmt.Printf("link stats: imported=%d skipped=%d\n", link.Stats().Imported, link.Stats().Skipped)
	return nil
}
