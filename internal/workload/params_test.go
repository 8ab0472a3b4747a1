package workload

import (
	"math"
	"testing"
)

// TestTableIParameterCounts pins every training-set model's parameter count
// against Table I of the paper. GPT-2 is given a wider band because the paper
// counts the tied LM head (137 M) while the canonical module dump yields
// 124 M.
func TestTableIParameterCounts(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Model
		wantM     float64 // millions
		tolerance float64 // relative
	}{
		{"Resnet18", NewResNet18, 11.7, 0.05},
		{"VGG16", NewVGG16, 138, 0.05},
		{"Densenet121", NewDenseNet121, 7.98, 0.05},
		{"Mobilenetv2", NewMobileNetV2, 3.5, 0.05},
		{"PEANUT RCNN", NewPEANUTRCNN, 14.21, 0.05},
		{"Resnet50", NewResNet50, 25.5, 0.05},
		{"Mixtral-8x7B", NewMixtral8x7B, 46700, 0.02},
		{"GPT2", NewGPT2, 137, 0.12},
		{"Meta Llama-3-8B", NewLlama3_8B, 8030, 0.02},
		{"DPT-Large", NewDPTLarge, 342, 0.10},
		{"DINOv2-large", NewDINOv2Large, 304, 0.03},
		{"SWIN-T", NewSwinT, 29, 0.05},
		{"Whisperv3-large", NewWhisperV3Large, 1540, 0.03},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build()
			if m.Name != tc.name {
				t.Fatalf("model name = %q, want %q", m.Name, tc.name)
			}
			got := float64(m.Params()) / 1e6
			rel := math.Abs(got-tc.wantM) / tc.wantM
			if rel > tc.tolerance {
				t.Errorf("%s params = %.2fM, want %.2fM (+-%.0f%%), off by %.1f%%",
					tc.name, got, tc.wantM, tc.tolerance*100, rel*100)
			}
		})
	}
}

// TestTestSetParameterCounts pins the test-set models against their published
// sizes (not tabulated in the paper, but standard).
func TestTestSetParameterCounts(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Model
		wantM     float64
		tolerance float64
	}{
		{"BERT-base", NewBERTBase, 110, 0.05},
		{"Graphormer", NewGraphormer, 47, 0.05},
		{"ViT-base", NewViTBase, 86, 0.03},
		{"AST", NewAST, 87, 0.03},
		{"DETR", NewDETR, 41, 0.05},
		{"Alexnet", NewAlexNet, 61.1, 0.02},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := float64(tc.build().Params()) / 1e6
			rel := math.Abs(got-tc.wantM) / tc.wantM
			if rel > tc.tolerance {
				t.Errorf("%s params = %.2fM, want %.2fM (+-%.0f%%)",
					tc.name, got, tc.wantM, tc.tolerance*100)
			}
		})
	}
}

// TestSetsAreDisjointAndComplete checks that the registry covers exactly the
// 13 training and 6 test algorithms and that the two sets do not overlap.
func TestSetsAreDisjointAndComplete(t *testing.T) {
	tr, tt := TrainingSet(), TestSet()
	if len(tr) != 13 {
		t.Errorf("training set has %d algorithms, want 13", len(tr))
	}
	if len(tt) != 6 {
		t.Errorf("test set has %d algorithms, want 6", len(tt))
	}
	seen := make(map[string]bool)
	for _, m := range tr {
		if seen[m.Name] {
			t.Errorf("duplicate training model %q", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range tt {
		if seen[m.Name] {
			t.Errorf("test model %q also in training set", m.Name)
		}
		seen[m.Name] = true
	}
	if len(Names()) != 19 {
		t.Errorf("Names() lists %d models, want 19", len(Names()))
	}
}

// TestByName round-trips every registered name and rejects unknown ones.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, m.Name)
		}
	}
	if _, err := ByName("NoSuchNet"); err == nil {
		t.Error("ByName accepted an unknown model")
	}
}

// TestNamesOrderWithoutBuilding pins Names to the training-then-test order of
// the built sets, and pins its cost: it lists names without building models
// (one allocation, the returned slice), so error paths that print the known
// names stay cheap.
func TestNamesOrderWithoutBuilding(t *testing.T) {
	var want []string
	for _, m := range append(TrainingSet(), TestSet()...) {
		want = append(want, m.Name)
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Names() }); allocs != 1 {
		t.Errorf("Names() allocates %v times per call, want 1", allocs)
	}
}

// TestAllModelsValidate runs structural validation on every model.
func TestAllModelsValidate(t *testing.T) {
	for _, m := range append(TrainingSet(), TestSet()...) {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// TestModelClasses checks the Type column of Table I.
func TestModelClasses(t *testing.T) {
	want := map[string]Class{
		"Resnet18":        ClassCNN,
		"VGG16":           ClassCNN,
		"Densenet121":     ClassCNN,
		"Mobilenetv2":     ClassCNN,
		"PEANUT RCNN":     ClassRCNN,
		"Resnet50":        ClassCNN,
		"Mixtral-8x7B":    ClassMoELLM,
		"GPT2":            ClassLLM,
		"Meta Llama-3-8B": ClassLLM,
		"DPT-Large":       ClassTransformer,
		"DINOv2-large":    ClassTransformer,
		"SWIN-T":          ClassTransformer,
		"Whisperv3-large": ClassTransformer,
	}
	for _, m := range TrainingSet() {
		if m.Class != want[m.Name] {
			t.Errorf("%s class = %s, want %s", m.Name, m.Class, want[m.Name])
		}
	}
}

// TestDistinctiveKinds checks the layer-kind signatures that drive subset
// formation: GPT-2 and Whisper carry Conv1d (the paper notes they are grouped
// separately for it); PEANUT alone carries ROIAlign and LastLevelMaxPool;
// MobileNetV2 alone carries ReLU6; the Llama-family models carry SiLU.
func TestDistinctiveKinds(t *testing.T) {
	kindsOf := func(m *Model) map[OpKind]bool { return m.Kinds() }

	gpt2 := kindsOf(NewGPT2())
	if !gpt2[Conv1d] || gpt2[Linear] || gpt2[Conv2d] {
		t.Errorf("GPT2 kinds = %v, want Conv1d-only compute", NewGPT2().KindList())
	}
	if w := kindsOf(NewWhisperV3Large()); !w[Conv1d] || !w[Linear] || !w[GELU] {
		t.Errorf("Whisper kinds = %v, want Conv1d+Linear+GELU", NewWhisperV3Large().KindList())
	}
	if p := kindsOf(NewPEANUTRCNN()); !p[ROIAlign] || !p[LastLevelMaxPool] {
		t.Errorf("PEANUT kinds = %v, want ROIAlign and LastLevelMaxPool", NewPEANUTRCNN().KindList())
	}
	for _, m := range append(TrainingSet(), TestSet()...) {
		if m.Name == "PEANUT RCNN" {
			continue
		}
		if ks := m.Kinds(); ks[ROIAlign] || ks[LastLevelMaxPool] {
			t.Errorf("%s unexpectedly uses detection pooling", m.Name)
		}
	}
	if mb := kindsOf(NewMobileNetV2()); !mb[ReLU6] {
		t.Error("MobileNetV2 missing ReLU6")
	}
	if l := kindsOf(NewLlama3_8B()); !l[SiLU] {
		t.Error("Llama-3 missing SiLU")
	}
	if mx := kindsOf(NewMixtral8x7B()); !mx[SiLU] {
		t.Error("Mixtral missing SiLU")
	}
}

// TestMoEAccounting verifies that Mixtral's expert replication contributes
// 8x parameters but only 2x MACs (top-2 routing).
func TestMoEAccounting(t *testing.T) {
	m := NewMixtral8x7B()
	var expertParams, expertMACs, base int64
	for _, l := range m.Layers {
		if l.Copies == 8 {
			expertParams += l.Params()
			expertMACs += l.MACs()
			base += l.Params() / 8
		}
	}
	if expertParams != base*8 {
		t.Errorf("expert params = %d, want %d", expertParams, base*8)
	}
	// MACs for seq rows: active copies = 2 of 8.
	wantMACs := base * 2 / int64(1) // params ~= weights; MACs = rows*weights*active
	_ = wantMACs
	var oneExpertMACs int64
	for _, l := range m.Layers {
		if l.Copies == 8 {
			single := l
			single.Copies, single.ActiveCopies = 1, 1
			oneExpertMACs += single.MACs()
		}
	}
	if expertMACs != 2*oneExpertMACs {
		t.Errorf("expert MACs = %d, want 2x single-expert %d", expertMACs, 2*oneExpertMACs)
	}
}
