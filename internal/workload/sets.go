package workload

import "fmt"

// registry lists the thirteen training algorithms of Table I, then the six
// test algorithms of Input #6, each in the paper's order: the single source of
// TrainingSet, TestSet, Names and ByName. Each name is the model's Name
// (TestByName pins the correspondence), so listing names builds nothing.
var registry = []struct {
	name  string
	build func() *Model
}{
	{"Resnet18", NewResNet18},
	{"VGG16", NewVGG16},
	{"Densenet121", NewDenseNet121},
	{"Mobilenetv2", NewMobileNetV2},
	{"PEANUT RCNN", NewPEANUTRCNN},
	{"Resnet50", NewResNet50},
	{"Mixtral-8x7B", NewMixtral8x7B},
	{"GPT2", NewGPT2},
	{"Meta Llama-3-8B", NewLlama3_8B},
	{"DPT-Large", NewDPTLarge},
	{"DINOv2-large", NewDINOv2Large},
	{"SWIN-T", NewSwinT},
	{"Whisperv3-large", NewWhisperV3Large},
	{"BERT-base", NewBERTBase},
	{"Graphormer", NewGraphormer},
	{"ViT-base", NewViTBase},
	{"AST", NewAST},
	{"DETR", NewDETR},
	{"Alexnet", NewAlexNet},
}

// numTraining is the size of the training set at the head of registry.
const numTraining = 13

// builders maps every known algorithm name to its constructor: the registry
// plus the extension algorithms registered in extended.go.
var builders = map[string]func() *Model{}

func init() {
	for _, r := range registry {
		builders[r.name] = r.build
	}
}

// TrainingSet returns the thirteen training algorithms of Table I in the
// paper's order. A fresh slice of fresh models is returned on every call so
// callers may mutate freely.
func TrainingSet() []*Model { return buildAll(0, numTraining) }

// TestSet returns the six test algorithms of Input #6.
func TestSet() []*Model { return buildAll(numTraining, len(registry)) }

// buildAll builds registry entries [lo, hi) in order.
func buildAll(lo, hi int) []*Model {
	out := make([]*Model, 0, hi-lo)
	for _, r := range registry[lo:hi] {
		out = append(out, r.build())
	}
	return out
}

// ByName builds the named algorithm or reports an error listing is unknown.
func ByName(name string) (*Model, error) {
	f, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown algorithm %q", name)
	}
	return f(), nil
}

// Names returns every registered algorithm name (training then test order)
// without building any model.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}
