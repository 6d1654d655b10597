package autotune

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smat/internal/matrix"
)

func TestLoadModelRejectsNewerVersion(t *testing.T) {
	m := modelAlways(matrix.FormatCSR, 0.95)
	m.Version = ModelSchemaVersion + 1
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Fatal("model from a newer schema accepted")
	}
}

// TestLoadersIgnoreRetiredParamKeys: files written while kernels carried
// template parameters — an unroll depth, a HYB width cut, and the older batch
// register tile, DIA density floor and register-block shape — load, and the
// "params" key reads as nothing.
func TestLoadersIgnoreRetiredParamKeys(t *testing.T) {
	const retired = `{"CSR":{"unroll":8},"HYB":{"hyb_cut":0.1},"DIA":{"batch_tile":2,"dia_min_density":0.05,"block_r":8,"block_c":2}}`

	m := modelAlways(matrix.FormatDIA, 0.95)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var classes []map[string]json.RawMessage
	if err := json.Unmarshal(raw["classes"], &classes); err != nil {
		t.Fatal(err)
	}
	classes[0]["params"] = json.RawMessage(retired)
	var err error
	if raw["classes"], err = json.Marshal(classes); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("model with retired keys: %v", err)
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), buf.Bytes()) {
		t.Errorf("model with retired keys saves as\n%s\nwant\n%s", resaved.Bytes(), buf.Bytes())
	}

	row := `{"schema":2,"threads":1,"name":"x","features":{},"best":"DIA","params":` + retired + `}` + "\n"
	db, err := LoadDatabase(strings.NewReader(row))
	if err != nil {
		t.Fatalf("database row with retired keys: %v", err)
	}
	var out bytes.Buffer
	if err := db.Save(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "params") {
		t.Errorf("database row with retired keys saves as %s", out.String())
	}
	if db.Records[0].Best != "DIA" || db.Records[0].Name != "x" {
		t.Errorf("database row read as %+v", db.Records[0])
	}
}

// TestLoadModelRejectsUnknownKernel: a class naming a kernel the tuner cannot
// bind for the format — a retired one, or another format's — fails to load
// with an error naming the class, the format and the kernel. A format named
// for nothing still loads (and binds the default).
func TestLoadModelRejectsUnknownKernel(t *testing.T) {
	for _, c := range []struct {
		name    string
		kernels map[string]string
		bad     string // "" when the model must load
	}{
		{"retired unroll depth", map[string]string{"CSR": "csr_parallel_nnz_u8"}, "csr_parallel_nnz_u8"},
		{"another format's kernel", map[string]string{"ELL": "dia_blocked_parallel"}, "dia_blocked_parallel"},
		{"no basic format", map[string]string{"HYB": "hyb_width_parallel"}, "hyb_width_parallel"},
		{"registered", map[string]string{"CSR": "csr_parallel_nnz_unroll4", "DIA": "dia_blocked_parallel"}, ""},
		{"absent", map[string]string{}, ""},
	} {
		m := modelAlways(matrix.FormatCSR, 0.95)
		m.Classes[0].Kernels = c.kernels
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := LoadModel(&buf)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: model loaded", c.name)
			continue
		}
		for _, want := range []string{"class 0", c.bad, "retrain with smat-train"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", c.name, err, want)
			}
		}
		for f := range c.kernels {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name the format %s", c.name, err, f)
			}
		}
	}
}

func TestLoadDatabaseRejectsNewerSchema(t *testing.T) {
	row := `{"schema":3,"threads":1,"name":"x","features":{},"best":"CSR"}` + "\n"
	if _, err := LoadDatabase(strings.NewReader(row)); err == nil {
		t.Fatal("record from a newer schema accepted")
	}
}
