package hft

import (
	"bytes"
	"context"
	"testing"
)

// TestZeroSwitches: every process a cluster runs — each replica, its
// receivers, the output-commit transmit loop, the late joiner — is a step
// machine the sim kernel dispatches on the scheduler's own stack, so a
// full run switches into no coroutine at all. Four runs: the cpu_el1k
// shape, the io_read shape, the output-commit service, and a failover
// with a rejoin, a checkpoint and a verified restore (whose replay counts
// too). While replicas and their receivers ran as coroutines the four
// read 5.73, 3.85, 2.65 and 5.53 switches per committed epoch.
func TestZeroSwitches(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		// drive runs c to completion and returns the clusters whose
		// kernels must not have switched (c, and any restored from it).
		drive func(t *testing.T, c *Cluster) []*Cluster
	}{
		{"cpu_el1k", []Option{WithWorkload(CPUIntensive(2000)), WithEpochLength(1024),
			WithProtocol(ProtocolOld), WithLink(Ethernet10())}, nil},
		{"io_read", []Option{WithWorkload(DiskRead(96, 8192)), WithSeed(7), WithEpochLength(1024),
			WithProtocol(ProtocolNew), WithLink(Ethernet10())}, nil},
		{"output commit", []Option{WithWorkload(ServeRequests(600, 50)),
			WithClientLoad(ClientLoad{Clients: 8, MeanGap: 250 * Microsecond, Timeout: 50 * Millisecond}),
			WithSeed(7), WithProtocol(ProtocolNew), WithLink(ATM155()), WithEpochLength(256),
			WithOutputCommit(OutputCommit{Window: 16, Adaptive: true})}, nil},
		{"failover, rejoin, save and restore", []Option{WithWorkload(DiskWrite(12, 8192)), WithProtocol(ProtocolNew)},
			func(t *testing.T, c *Cluster) []*Cluster {
				if _, err := c.RunFor(5 * Millisecond); err != nil {
					t.Fatal(err)
				}
				c.FailPrimary()
				if _, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted }); err != nil {
					t.Fatal(err)
				}
				if _, err := c.AddBackup(); err != nil {
					t.Fatal(err)
				}
				if _, err := c.RunFor(5 * Millisecond); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := c.Save(&buf); err != nil {
					t.Fatal(err)
				}
				r, err := Restore(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				for _, cl := range []*Cluster{c, r} {
					if _, err := cl.Wait(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if s := c.Snapshot(); s.Nodes != 3 || !s.Promoted {
					t.Fatalf("the run did not fail over and rejoin: %d nodes, promoted %v", s.Nodes, s.Promoted)
				}
				return []*Cluster{c, r}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clusters := []*Cluster{c}
			if tc.drive != nil {
				clusters = tc.drive(t, c)
			} else if _, err := c.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, cl := range clusters {
				n, epochs := cl.eng.Kernel().Switches(), cl.Snapshot().Epochs
				if epochs == 0 {
					t.Fatal("no epoch committed")
				}
				if n != 0 {
					t.Errorf("%d switches into coroutines over %d epochs (%.2f per epoch), want none",
						n, epochs, float64(n)/float64(epochs))
				}
			}
		})
	}
}
