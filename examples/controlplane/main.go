// controlplane example: the full software-defined flow end to end — build a
// rack with a topology model and node agents, start the REST API on a local
// port, then act as an API client: attach memory with channel bonding,
// inspect the state, run a workload on the attached memory, and detach.
//
//	go run ./examples/controlplane
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/workloads/stream"
)

const (
	cpToken    = "internal-trust"
	adminToken = "admin-secret"
)

func main() {
	// 1. Simulated rack + topology model + agents.
	cluster := core.NewCluster()
	model := controlplane.NewModel()
	names := []string{"node0", "node1", "node2"}
	for _, n := range names {
		if _, err := cluster.AddHost(core.DefaultHostConfig(n)); err != nil {
			log.Fatal(err)
		}
		if err := model.AddHost(n, 2); err != nil {
			log.Fatal(err)
		}
	}
	if err := model.CableFullMesh(); err != nil {
		log.Fatal(err)
	}
	svc := controlplane.NewService(model, controlplane.ClusterExecutor{Cluster: cluster}, cpToken)
	for _, n := range names {
		svc.RegisterAgent(agent.New(n, cpToken))
	}

	// 2. Serve the REST API on an ephemeral port.
	api := controlplane.NewAPI(svc, controlplane.AuthConfig{AdminTokens: []string{adminToken}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, api) //nolint:errcheck
	base := "http://" + ln.Addr().String()
	fmt.Printf("control plane serving on %s\n", base)

	// 3. Attach 512 MiB from node1 to node0 with channel bonding, via REST.
	body, _ := json.Marshal(map[string]any{
		"compute_host": "node0", "donor_host": "node1",
		"bytes": 512 << 20, "channels": 2,
	})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/attachments", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var rec controlplane.AttachmentRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("attached: id=%s numa-node=%d channels=%d path-lengths=%v\n",
		rec.ID, rec.NUMANode, rec.Channels, rec.PathLen)

	// 4. Use the attached memory: bonded STREAM on node0.
	node0, _ := cluster.Host("node0")
	att, _ := cluster.Attachment(rec.ID)
	res, err := stream.Run(node0, numa.Local(att.Node),
		stream.Config{Elements: 20_000_000, Threads: 8, Iterations: 1, ChunkBytes: 4 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bonded STREAM copy on the attached memory: %.2f GiB/s\n", res[0].GiBps)

	// 5. Detach via REST and show the fabric is free again.
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/attachments/"+rec.ID, nil)
	dreq.Header.Set("Authorization", "Bearer "+adminToken)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		log.Fatal(err)
	}
	dresp.Body.Close()
	fmt.Printf("detached; free compute transceivers on node0: %d/2\n",
		model.FreeTransceivers("node0", controlplane.LabelComputeEP))
}
