package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
)

// runMain runs the command with args and returns what it printed.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, argv := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, argv }()
	os.Stdout, os.Args = w, append([]string{"pubsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("pubsim", flag.ExitOnError)
	out := make(chan []byte)
	go func() { b, _ := io.ReadAll(r); out <- b }()
	main()
	w.Close()
	return <-out
}

// TestJSONKeyMatchesDaemon: -json names the machine and keys the cell
// exactly as pubsd does for the equivalent MachineSpec, so a CLI result
// and a daemon result for the same simulation share one content key.
func TestJSONKeyMatchesDaemon(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		spec  service.MachineSpec
		name  string
	}{
		{[]string{"-machine", "pubs"}, service.MachineSpec{Machine: "pubs"}, "pubs"},
		{[]string{"-machine", "pubs", "-nostall"}, service.MachineSpec{Machine: "pubs", NoStall: true}, "pubs-nostall"},
		{[]string{"-machine", "pubs", "-priority", "4", "-blind"}, service.MachineSpec{Machine: "pubs", PriorityEntries: 4, Blind: true}, "pubs-p4-blind"},
		{[]string{"-machine", "base", "-wrongpath"}, service.MachineSpec{Machine: "base", WrongPath: true}, "base-wp"},
	} {
		args := append([]string{"-json", "-workload", "chess", "-warmup", "2000", "-insts", "5000"}, tc.flags...)
		var got service.CellResult
		if err := json.Unmarshal(runMain(t, args...), &got); err != nil {
			t.Fatalf("%v: %v", tc.flags, err)
		}
		cells, err := service.CampaignSpec{Machines: []service.MachineSpec{tc.spec}, Workloads: []string{"chess"}}.Cells(0)
		if err != nil {
			t.Fatal(err)
		}
		want := cells[0].Key(experiments.Options{Warmup: 2000, Measure: 5000})
		if got.Machine != tc.name || got.Key != want {
			t.Errorf("%v: machine %q key %.8s, want %q key %.8s", tc.flags, got.Machine, got.Key, tc.name, want)
		}
	}
}
