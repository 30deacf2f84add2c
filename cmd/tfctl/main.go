// Command tfctl is the CLI client of the ThymesisFlow control plane.
//
// Usage:
//
//	tfctl [-server URL] [-token TOKEN] <command> [flags]
//
// Commands:
//
//	attach  -compute HOST -donor HOST -bytes N [-channels N]
//	detach  -id ATTACHMENT
//	list
//	get     -id ATTACHMENT
//	sagas
//	topology
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
)

func main() {
	server := flag.String("server", "http://localhost:8440", "control-plane base URL")
	token := flag.String("token", "tf-admin", "bearer token")
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	rest := flag.Args()[1:]

	var err error
	switch cmd {
	case "attach":
		err = cmdAttach(*server, *token, rest)
	case "detach":
		err = cmdDetach(*server, *token, rest)
	case "list":
		err = doGET(*server+"/v1/attachments", *token)
	case "get":
		fs := flag.NewFlagSet("get", flag.ExitOnError)
		id := fs.String("id", "", "attachment id")
		fs.Parse(rest) //nolint:errcheck
		if *id == "" {
			usage()
		}
		err = doGET(*server+"/v1/attachments/"+*id, *token)
	case "sagas":
		err = doGET(*server+"/v1/sagas", *token)
	case "topology":
		err = doGET(*server+"/v1/topology", *token)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tfctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tfctl [-server URL] [-token TOKEN] attach|detach|list|get|sagas|topology [flags]")
	os.Exit(2)
}

func cmdAttach(server, token string, args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	compute := fs.String("compute", "", "compute (recipient) host")
	donor := fs.String("donor", "", "memory donor host")
	bytesN := fs.Int64("bytes", 0, "bytes of disaggregated memory")
	channels := fs.Int("channels", 1, "network channels (2 = bonding)")
	fs.Parse(args) //nolint:errcheck
	if *compute == "" || *donor == "" || *bytesN <= 0 {
		usage()
	}
	body, _ := json.Marshal(map[string]any{
		"compute_host": *compute,
		"donor_host":   *donor,
		"bytes":        *bytesN,
		"channels":     *channels,
	})
	req, err := http.NewRequest(http.MethodPost, server+"/v1/attachments", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return do(req, token)
}

func cmdDetach(server, token string, args []string) error {
	fs := flag.NewFlagSet("detach", flag.ExitOnError)
	id := fs.String("id", "", "attachment id")
	fs.Parse(args) //nolint:errcheck
	if *id == "" {
		usage()
	}
	req, err := http.NewRequest(http.MethodDelete, server+"/v1/attachments/"+*id, nil)
	if err != nil {
		return err
	}
	return do(req, token)
}

func doGET(url, token string) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return do(req, token)
}

func do(req *http.Request, token string) error {
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// Pretty-print JSON responses.
	var pretty bytes.Buffer
	if json.Indent(&pretty, raw, "", "  ") == nil {
		fmt.Println(pretty.String())
	} else {
		fmt.Println(string(raw))
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
