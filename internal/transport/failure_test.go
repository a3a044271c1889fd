package transport

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
)

// failureServer builds a 1-device server for failure-injection tests.
func failureServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  1,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed: fedzkt.Config{
			Rounds: 1, LocalEpochs: 1, DistillIters: 2, DistillBatch: 8,
			BatchSize: 4, ZDim: 8, Seed: 1,
		},
		IOTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestNewServerRejectsUnsupportedFedFields: every fedzkt.Config field the
// networked round loop does not implement is rejected by name instead of
// silently ignored, and a bad active fraction is an error, not a panic.
func TestNewServerRejectsUnsupportedFedFields(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*fedzkt.Config)
	}{
		{"SampleK", func(c *fedzkt.Config) { c.SampleK = 4 }},
		{"SampleWeighted", func(c *fedzkt.Config) { c.SampleWeighted = true }},
		{"PipelineDepth", func(c *fedzkt.Config) { c.PipelineDepth = 1 }},
		{"RoundDeadline", func(c *fedzkt.Config) { c.RoundDeadline = time.Second }},
		{"FailureRate", func(c *fedzkt.Config) { c.FailureRate = 0.1 }},
		{"VirtualDevices", func(c *fedzkt.Config) { c.VirtualDevices = true }},
		{"CheckpointDir", func(c *fedzkt.Config) { c.CheckpointDir = t.TempDir() }},
		{"Resume", func(c *fedzkt.Config) { c.Resume = true }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := fedzkt.Config{Rounds: 1, Seed: 1}
			tc.set(&cfg)
			if err := newServerErr(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("NewServer with Fed.%s set: error %v, want one naming the field", tc.field, err)
			}
		})
	}
	if err := newServerErr(fedzkt.Config{Rounds: 1, Seed: 1, ActiveFraction: 1.5}); err == nil {
		t.Fatal("NewServer accepted active fraction 1.5")
	}
}

// newServerErr builds a 1-device server from fed and returns NewServer's
// error, closing the server if it was built.
func newServerErr(fed fedzkt.Config) error {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumDevices: 1,
		Sizes: data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed:   fed,
	})
	if err == nil {
		srv.Close()
	}
	return err
}

// TestServerRejectsBogusArchitecture: a device announcing an unknown
// architecture must fail the run with a clear error, not hang.
func TestServerRejectsBogusArchitecture(t *testing.T) {
	srv := failureServer(t)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: MsgHello, Arch: "bogus-arch"}); err != nil {
		t.Fatal(err)
	}
	// The server sends Welcome first (arch is validated at registration),
	// so play along until InitState — send garbage state instead.
	if _, err := expect(conn, MsgWelcome); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(conn, &Message{Type: MsgInitState, Payload: []byte("junk")}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server accepted a corrupt registration")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on corrupt registration")
	}
}

// TestServerHandlesWrongMessageType: a device that skips the handshake
// must produce a protocol error.
func TestServerHandlesWrongMessageType(t *testing.T) {
	srv := failureServer(t)
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: MsgUpload, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "expected hello") {
			t.Fatalf("err = %v, want protocol error mentioning hello", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on protocol violation")
	}
}

// TestServerTimesOutSilentDevice: a device that connects and goes silent
// must trip the IO deadline rather than stall the federation forever.
func TestServerTimesOutSilentDevice(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr:        "127.0.0.1:0",
		NumDevices:  1,
		DatasetName: "synthmnist",
		Sizes:       data.Sizes{TrainPerClass: 4, TestPerClass: 2},
		Fed:         fedzkt.Config{Rounds: 1, Seed: 1},
		IOTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server completed despite a silent device")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not time out a silent device")
	}
}

// TestDeviceSurvivesServerCrash: if the server disappears mid-session the
// device returns an error instead of hanging.
func TestDeviceSurvivesServerCrash(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the Hello then slam the connection shut.
		_, _ = ReadMessage(conn)
		_ = conn.Close()
		_ = ln.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := RunDevice(ctx, DeviceConfig{Addr: ln.Addr().String(), Arch: "mlp", IOTimeout: 2 * time.Second}); err == nil {
		t.Fatal("device must error when the server vanishes")
	}
}
