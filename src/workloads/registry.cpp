#include "workloads/registry.h"

#include <stdexcept>

#include "models/zoo.h"
#include "nn/norm.h"

namespace fp8q {

namespace {

/// Gaussian feature perturbation applied to every input tensor.
std::function<std::vector<Tensor>(Rng&, const std::vector<Tensor>&)> noise_perturb(
    float stddev) {
  return [stddev](Rng& rng, const std::vector<Tensor>& clean) {
    std::vector<Tensor> out;
    out.reserve(clean.size());
    for (const Tensor& t : clean) {
      Tensor p = t;
      for (float& v : p.flat()) v += rng.normal(0.0f, stddev);
      out.push_back(std::move(p));
    }
    return out;
  };
}

/// Token-substitution perturbation for discrete-id inputs.
std::function<std::vector<Tensor>(Rng&, const std::vector<Tensor>&)> token_perturb(
    double flip_prob, std::int64_t vocab) {
  return [flip_prob, vocab](Rng& rng, const std::vector<Tensor>& clean) {
    std::vector<Tensor> out = clean;
    for (float& v : out[0].flat()) {
      if (rng.uniform01() < flip_prob) v = static_cast<float>(rng.randint(0, vocab - 1));
    }
    return out;
  };
}

/// Injects element-level spikes of magnitude ~mag into a fraction of
/// entries. Element spikes are neither channel- nor token-aligned, so
/// neither SmoothQuant nor LayerNorm row normalization can remove them --
/// this is the *range-bound* tensor regime of paper Figure 3 and the
/// residual failure mode of per-tensor INT8 on LLM-class activations.
void spike(Tensor& t, Rng& rng, double frac, float mag) {
  if (frac <= 0.0 || mag <= 0.0f) return;
  for (float& v : t.flat()) {
    if (rng.uniform01() < frac) {
      v = (rng.uniform01() < 0.5 ? -1.0f : 1.0f) * mag * rng.uniform(0.7f, 1.3f);
    }
  }
}

void settle_batchnorm_stats(Graph& g,
                            const std::function<std::vector<Tensor>(Rng&, int)>& make_batch,
                            std::uint64_t seed) {
  // Makes BatchNorm running statistics self-consistent with the synthetic
  // data so that PTQ BatchNorm calibration compensates quantization shift
  // instead of re-defining the FP32 reference.
  std::vector<BatchNorm2dOp*> bns;
  for (Graph::NodeId id : g.node_ids()) {
    if (auto* bn = dynamic_cast<BatchNorm2dOp*>(g.node(id).op.get())) bns.push_back(bn);
  }
  if (bns.empty()) return;
  // BatchNorm calibration runs in training mode (batch statistics), so a
  // single round is already self-consistent at any depth; a second round
  // only refines the running averages.
  Rng rng(seed ^ 0xB47C4A11Bu);
  for (int round = 0; round < 2; ++round) {
    for (auto* bn : bns) bn->begin_calibration();
    for (int i = 0; i < 4; ++i) (void)g.forward(make_batch(rng, 16));
    for (auto* bn : bns) bn->finish_calibration();
  }
}

std::function<std::vector<Tensor>(Rng&, int)> image_batch(int c, int hw,
                                                          double spike_frac = 0.0,
                                                          float spike_mag = 0.0f) {
  return [=](Rng& rng, int batch) {
    Tensor x = randn(rng, {batch, c, hw, hw});
    spike(x, rng, spike_frac, spike_mag);
    std::vector<Tensor> in;
    in.push_back(std::move(x));
    return in;
  };
}

std::function<std::vector<Tensor>(Rng&, int)> sequence_batch(int seq, int dim,
                                                             double spike_frac = 0.0,
                                                             float spike_mag = 0.0f) {
  return [=](Rng& rng, int batch) {
    Tensor x = randn(rng, {batch, seq, dim});
    spike(x, rng, spike_frac, spike_mag);
    std::vector<Tensor> in;
    in.push_back(std::move(x));
    return in;
  };
}

std::function<std::vector<Tensor>(Rng&, int)> vector_batch(int dim,
                                                           double spike_frac = 0.0,
                                                           float spike_mag = 0.0f) {
  return [=](Rng& rng, int batch) {
    Tensor x = randn(rng, {batch, dim});
    spike(x, rng, spike_frac, spike_mag);
    std::vector<Tensor> in;
    in.push_back(std::move(x));
    return in;
  };
}

Workload cnn_workload(std::string name, CnnSpec spec, float noise, std::string family,
                      double spike_frac = 0.0, float spike_mag = 0.0f,
                      MetricKind metric = MetricKind::kTop1,
                      std::string task = "image-classification") {
  Workload w;
  w.name = std::move(name);
  w.domain = "CV";
  w.task = std::move(task);
  w.family = std::move(family);
  w.is_cnn = true;
  w.metric = metric;
  w.data_seed = spec.seed * 31 + 7;
  // Labels come from clean images; the activation outliers (swish /
  // squeeze-excite spikes of the EfficientNet class) appear in the
  // calibration and evaluation data, where they stretch per-tensor grids
  // without carrying the class signal.
  auto clean_fn = image_batch(spec.in_channels, spec.image_hw);
  auto spiky_fn = image_batch(spec.in_channels, spec.image_hw, spike_frac, spike_mag);
  // Settle the reference BatchNorm statistics on the *deployment*
  // distribution (spikes included): PTQ BatchNorm calibration then merely
  // compensates quantization shift instead of re-defining the function.
  w.build = [spec, clean_fn] {
    Graph g = make_cnn(spec);
    settle_batchnorm_stats(g, clean_fn, spec.seed);
    return g;
  };
  w.make_batch = clean_fn;
  if (spike_frac > 0.0) w.make_calib_batch = spiky_fn;
  w.perturb = [noise, spike_frac, spike_mag](Rng& rng, const std::vector<Tensor>& clean) {
    std::vector<Tensor> out = clean;
    for (float& v : out[0].flat()) v += rng.normal(0.0f, noise);
    spike(out[0], rng, spike_frac, spike_mag);
    return out;
  };
  if (metric == MetricKind::kTop1) w.margin_quantile = 0.5;
  return w;
}

Workload unet_workload(std::string name, UnetSpec spec, float noise,
                       std::string task = "image-segmentation") {
  Workload w;
  w.name = std::move(name);
  w.domain = "CV";
  w.task = std::move(task);
  w.family = "unet-ish";
  w.is_cnn = true;
  w.metric = MetricKind::kNmse;
  w.data_seed = spec.seed * 47 + 19;
  w.build = [spec] { return make_unet(spec); };
  w.make_batch = image_batch(spec.in_channels, spec.hw);
  w.perturb = noise_perturb(noise);
  return w;
}

Workload encoder_workload(std::string name, TransformerSpec spec, float noise,
                          MetricKind metric, double spike_frac, float spike_mag,
                          std::string domain = "NLP", std::string family = "bert-ish",
                          std::string task = "text-classification",
                          double margin_quantile = 0.93) {
  Workload w;
  w.name = std::move(name);
  w.domain = std::move(domain);
  w.task = std::move(task);
  w.family = std::move(family);
  w.is_cnn = false;
  w.metric = metric;
  w.data_seed = spec.seed * 37 + 11;
  w.build = [spec] { return make_transformer_encoder(spec); };
  w.make_batch = sequence_batch(spec.seq, spec.dim, spike_frac, spike_mag);
  w.perturb = noise_perturb(noise);
  if (metric == MetricKind::kTop1) w.margin_quantile = margin_quantile;
  return w;
}

Workload lm_workload(std::string name, DecoderLmSpec spec, int seq, double flip_prob,
                     std::string family = "bloom-ish") {
  Workload w;
  w.name = std::move(name);
  w.domain = "NLP";
  w.task = "language-modeling";
  w.family = std::move(family);
  w.is_cnn = false;
  w.metric = MetricKind::kTop1;
  w.data_seed = spec.seed * 41 + 13;
  w.build = [spec] { return make_decoder_lm(spec); };
  const std::int64_t vocab = spec.vocab;
  w.make_batch = [seq, vocab](Rng& rng, int batch) {
    Tensor ids({batch, seq});
    for (float& v : ids.flat()) v = static_cast<float>(rng.randint(0, vocab - 1));
    Tensor pos({batch, seq});
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t s = 0; s < seq; ++s) pos.at({b, s}) = static_cast<float>(s);
    }
    std::vector<Tensor> in;
    in.push_back(std::move(ids));
    in.push_back(std::move(pos));
    return in;
  };
  w.perturb = token_perturb(flip_prob, vocab);
  w.margin_quantile = 0.97;
  return w;
}

Workload mlp_workload(std::string name, MlpSpec spec, float noise, MetricKind metric,
                      std::string domain, std::string task, std::string family,
                      double spike_frac = 0.0, float spike_mag = 0.0f) {
  Workload w;
  w.name = std::move(name);
  w.domain = std::move(domain);
  w.task = std::move(task);
  w.family = std::move(family);
  w.is_cnn = false;
  w.metric = metric;
  w.data_seed = spec.seed * 43 + 17;
  w.build = [spec] { return make_mlp_model(spec); };
  w.make_batch = vector_batch(spec.in_dim, spike_frac, spike_mag);
  w.perturb = noise_perturb(noise);
  if (metric == MetricKind::kTop1) w.margin_quantile = 0.93;
  return w;
}

Workload dlrm_workload(std::string name, DlrmSpec spec, float noise, double flip_prob) {
  Workload w;
  w.name = std::move(name);
  w.domain = "NLP";  // grouped with the non-CV bucket, as in Table 2
  w.task = "recommendation";
  w.family = "dlrm-ish";
  w.is_cnn = false;
  w.metric = MetricKind::kPearson;
  w.data_seed = spec.seed * 53 + 23;
  w.build = [spec] { return make_dlrm(spec); };
  const int dense = spec.dense_features;
  const std::int64_t vocab = spec.vocab;
  w.make_batch = [dense, vocab](Rng& rng, int batch) {
    std::vector<Tensor> in;
    in.push_back(randn(rng, {batch, dense}));
    Tensor ids({batch});
    for (float& v : ids.flat()) v = static_cast<float>(rng.randint(0, vocab - 1));
    in.push_back(std::move(ids));
    return in;
  };
  w.perturb = [noise, flip_prob, vocab](Rng& rng, const std::vector<Tensor>& clean) {
    std::vector<Tensor> out = clean;
    for (float& v : out[0].flat()) v += rng.normal(0.0f, noise);
    for (float& v : out[1].flat()) {
      if (rng.uniform01() < flip_prob) v = static_cast<float>(rng.randint(0, vocab - 1));
    }
    return out;
  };
  return w;
}

TransformerSpec nlp_encoder_spec(int dim, int layers, std::uint64_t seed) {
  TransformerSpec s;
  s.dim = dim;
  s.layers = layers;
  s.seq = 8;
  s.classes = 8;
  s.input_proj = true;
  s.outlier_channel_fraction = 0.06f;
  s.outlier_gamma_gain = 5.0f;
  s.seed = seed;
  return s;
}

}  // namespace

std::vector<Workload> build_suite() {
  std::vector<Workload> suite;
  suite.reserve(75);
  std::uint64_t seed = 100;

  // ---------------------------------------------------------------- CV (34)
  // 10 residual CNN classifiers (ResNet family): clean, precision-bound.
  for (int base : {8, 12, 16, 24}) {
    for (int blocks : {2, 3}) {
      CnnSpec s;
      s.image_hw = 10;
      s.base_channels = base;
      s.blocks = blocks;
      s.act_spread = 0.5f;
      s.seed = ++seed;
      std::string name =
          "cv/resnet-ish-c" + std::to_string(base) + "-b" + std::to_string(blocks);
      if (base == 16 && blocks == 3) name = "resnet50-ish";
      suite.push_back(cnn_workload(name, s, 0.5f, "resnet-ish"));
    }
  }
  for (int blocks : {4, 5}) {
    CnnSpec s;
    s.image_hw = 10;
    s.base_channels = 12;
    s.blocks = blocks;
    s.act_spread = 0.5f;
    s.seed = ++seed;
    suite.push_back(
        cnn_workload("cv/resnet-deep-b" + std::to_string(blocks), s, 0.5f, "resnet-ish"));
  }
  // 4 plain CNNs (VGG / DenseNet family).
  for (int i = 0; i < 4; ++i) {
    CnnSpec s;
    s.image_hw = 10;
    s.base_channels = 10 + 4 * i;
    s.blocks = 3;
    s.residual = false;
    s.batchnorm = i % 2 == 0;
    s.seed = ++seed;
    std::string name = "cv/vgg-ish-" + std::to_string(i);
    if (i == 0) name = "densenet121-ish";
    suite.push_back(cnn_workload(name, s, 0.5f, "vgg-ish"));
  }
  // 6 depthwise CNNs with activation spikes + channel imbalance
  // (EfficientNet / MobileNetV3 family: the INT8 failure cases).
  // 2 depthwise CNNs with rare high-magnitude activation spikes + 4
  // MobileViT-class hybrids (depthwise front ends are paired with
  // LayerNorm attention blocks in that family; the LN-decoupled token
  // spikes are the INT8 failure mechanism).
  {
    int i = 0;
    for (float mag : {40.0f, 55.0f}) {
      CnnSpec s;
      s.image_hw = 10;
      s.base_channels = 12;
      s.blocks = 3;
      s.depthwise = true;
      s.weight_spread = 4.0f;
      s.act_spread = 0.5f;
      s.seed = ++seed;
      suite.push_back(cnn_workload("cv/effnet-ish-" + std::to_string(i++), s, 0.5f,
                                   "efficientnet-ish", 0.0005, mag));
    }
    for (float mag : {50.0f, 90.0f, 140.0f, 220.0f}) {
      TransformerSpec s = nlp_encoder_spec(32, 2, ++seed);
      s.classes = 10;
      suite.push_back(encoder_workload("cv/mobilevit-ish-" + std::to_string(i++ - 2), s,
                                       0.25f, MetricKind::kTop1, 0.01, mag, "CV",
                                       "efficientnet-ish", "image-classification"));
    }
  }
  // 4 vision transformers (ViT family: patch projection sees raw spikes).
  {
    int i = 0;
    for (float mag : {40.0f, 80.0f, 150.0f, 250.0f}) {
      TransformerSpec s = nlp_encoder_spec(32, 2, ++seed);
      s.classes = 10;
      suite.push_back(encoder_workload("cv/vit-ish-" + std::to_string(i++), s, 0.25f,
                                       MetricKind::kTop1, 0.01, mag, "CV", "vit-ish",
                                       "image-classification"));
    }
  }
  // 3 U-Nets (segmentation family, continuous metric).
  for (int base : {6, 8, 10}) {
    UnetSpec s;
    s.base_channels = base;
    s.hw = 12;
    s.seed = ++seed;
    suite.push_back(unet_workload("cv/unet-ish-c" + std::to_string(base), s, 0.25f));
  }
  // 3 detection-regression CNNs (YOLO-style box-regression head proxy,
  // continuous metric).
  for (int i = 0; i < 3; ++i) {
    CnnSpec s;
    s.image_hw = 10;
    s.base_channels = 10 + 2 * i;
    s.blocks = 3;
    s.classes = 16;  // regression targets
    s.act_spread = 0.5f;
    s.seed = ++seed;
    suite.push_back(cnn_workload("cv/yolo-reg-" + std::to_string(i), s, 0.25f, "yolo-ish",
                                 0.0, 0.0f, MetricKind::kNmse, "object-detection"));
  }
  // 2 super-resolution U-Nets (image generation proxy, continuous metric).
  for (int i = 0; i < 2; ++i) {
    UnetSpec s;
    s.base_channels = 6 + 2 * i;
    s.hw = 8;
    s.seed = ++seed;
    suite.push_back(unet_workload("cv/superres-" + std::to_string(i), s, 0.2f,
                                  "image-generation"));
  }
  // 2 CIFAR-scale tiny CNNs.
  for (int i = 0; i < 2; ++i) {
    CnnSpec s;
    s.base_channels = 8 + 8 * i;
    s.blocks = 2;
    s.image_hw = 8;
    s.act_spread = 1.0f;
    s.seed = ++seed;
    suite.push_back(
        cnn_workload("cv/cifar-cnn-" + std::to_string(i), s, 0.5f, "shufflenet-ish"));
  }

  // --------------------------------------------------------------- NLP (38)
  // 12 BERT-family text classifiers: 6 clean + 6 spiky (range-bound).
  {
    int i = 0;
    for (int dim : {32, 48, 64}) {
      for (int seq_len : {8, 12}) {
        TransformerSpec s = nlp_encoder_spec(dim, 2, ++seed);
        s.seq = seq_len;
        std::string name = "nlp/bert-ish-" + std::to_string(i);
        if (dim == 48 && seq_len == 8) name = "distilbert-mrpc-ish";
        suite.push_back(encoder_workload(name, s, 0.25f, MetricKind::kTop1, 0.0, 0.0f));
        ++i;
      }
    }
    int j = 0;
    for (int dim : {32, 48, 64}) {
      for (float mag : {60.0f, 150.0f}) {
        TransformerSpec s = nlp_encoder_spec(dim, 2, ++seed);
        std::string name = "nlp/bert-outlier-" + std::to_string(j++);
        if (dim == 64 && mag == 150.0f) name = "bert-large-cola-ish";
        suite.push_back(encoder_workload(name, s, 0.25f, MetricKind::kTop1, 0.01, mag));
      }
    }
  }
  // 4 STS-B-style regression encoders (Pearson, precision-bound).
  {
    int i = 0;
    for (int dim : {32, 48}) {
      for (int seq_len : {8, 12}) {
        TransformerSpec s = nlp_encoder_spec(dim, 2, ++seed);
        s.seq = seq_len;
        s.classes = 1;
        std::string name = "nlp/stsb-ish-" + std::to_string(i++);
        if (dim == 48 && seq_len == 8) name = "bert-base-stsb-ish";
        suite.push_back(encoder_workload(name, s, 0.25f, MetricKind::kPearson, 0.0, 0.0f,
                                         "NLP", "bert-ish", "sentence-similarity"));
      }
    }
  }
  // 8 decoder LMs (Bloom / LLaMA family): 5 mild + 3 with outlier token
  // embeddings reaching the factorized embedding projection.
  {
    int i = 0;
    for (int dim : {32, 48}) {
      for (int layers : {1, 2}) {
        DecoderLmSpec s;
        s.vocab = 48;
        s.dim = dim;
        s.layers = layers;
        s.embed_proj = true;
        s.outlier_channel_fraction = 0.06f;
        s.outlier_gamma_gain = 5.0f;
        s.embedding_outlier_fraction = 0.03f;
        s.embedding_outlier_gain = 8.0f;
        s.seed = ++seed;
        std::string name = "nlp/lm-ish-" + std::to_string(i);
        if (dim == 48 && layers == 2) name = "bloom7b-ish";
        suite.push_back(lm_workload(name, s, 10, 0.06));
        ++i;
      }
    }
    {
      DecoderLmSpec s;
      s.vocab = 48;
      s.dim = 40;
      s.layers = 2;
      s.embed_proj = true;
      s.embedding_outlier_fraction = 0.03f;
      s.embedding_outlier_gain = 8.0f;
      s.seed = ++seed;
      suite.push_back(lm_workload("nlp/lm-ish-4", s, 10, 0.06));
    }
    int j = 0;
    for (float mag : {120.0f, 250.0f, 500.0f}) {
      DecoderLmSpec s;
      s.vocab = 48;
      s.dim = 48;
      s.layers = 1;
      s.embed_proj = true;
      s.outlier_channel_fraction = 0.06f;
      s.outlier_gamma_gain = 5.0f;
      s.embedding_outlier_fraction = 0.04f;
      s.embedding_outlier_gain = 2.0f * mag;  // table stddev 0.5 -> rows ~mag
      s.seed = ++seed;
      std::string name = "nlp/lm-outlier-" + std::to_string(j++);
      if (mag == 250.0f) name = "llama65b-ish";
      suite.push_back(lm_workload(name, s, 10, 0.06, "llama-ish"));
    }
  }
  // 4 outlier-extreme LLMs (176B-class): range demand beyond E3M4.
  {
    int i = 0;
    for (float mag : {4000.0f, 8000.0f, 15000.0f, 30000.0f}) {
      DecoderLmSpec s;
      s.vocab = 48;
      s.dim = 48;
      s.layers = 1;
      s.embed_proj = true;
      s.outlier_channel_fraction = 0.06f;
      s.outlier_gamma_gain = 5.0f;
      s.embedding_outlier_fraction = 0.04f;
      s.embedding_outlier_gain = 2.0f * mag;
      s.seed = ++seed;
      std::string name = "nlp/lm-extreme-" + std::to_string(i++);
      if (mag == 8000.0f) name = "bloom176b-ish";
      suite.push_back(lm_workload(name, s, 10, 0.06, "llama-ish"));
    }
  }
  // 4 compact MLP classifiers (DistilBert-class): 2 mild with LayerNorm,
  // 2 spiky without (feature front-end, range-bound).
  for (int i = 0; i < 2; ++i) {
    MlpSpec s;
    s.in_dim = 32;
    s.hidden = 48 + 48 * i;
    s.layers = 2;
    s.out_dim = 8;
    s.layernorm = true;
    s.outlier_channel_fraction = 0.08f;
    s.outlier_gamma_gain = 6.0f;
    s.seed = ++seed;
    suite.push_back(mlp_workload("nlp/distil-mlp-" + std::to_string(i), s, 0.3f,
                                 MetricKind::kTop1, "NLP", "text-classification",
                                 "distilbert-ish"));
  }
  for (int i = 0; i < 2; ++i) {
    MlpSpec s;
    s.in_dim = 32;
    s.hidden = 64;
    s.layers = 2;
    s.out_dim = 8;
    s.layernorm = true;
    s.outlier_channel_fraction = 0.08f;
    s.outlier_gamma_gain = 10.0f;
    s.seed = ++seed;
    suite.push_back(mlp_workload("nlp/distil-mlp-" + std::to_string(2 + i), s, 0.3f,
                                 MetricKind::kTop1, "NLP", "text-classification",
                                 "distilbert-ish"));
  }
  // 4 translation/summarization encoders (Marian / Pegasus family).
  {
    int i = 0;
    for (float mag : {0.0f, 0.0f, 0.0f, 120.0f}) {
      TransformerSpec s = nlp_encoder_spec(48 + 16 * (i % 2), 2, ++seed);
      s.classes = 32;
      suite.push_back(encoder_workload("nlp/marian-ish-" + std::to_string(i++), s, 0.25f,
                                       MetricKind::kTop1, mag > 0 ? 0.01 : 0.0, mag,
                                       "NLP", "marian-ish", "translation", 0.95));
    }
  }
  // 2 long-sequence encoders (Longformer family): 1 mild + 1 range-extreme
  // (beyond E3M4's usable range).
  {
    TransformerSpec s = nlp_encoder_spec(32, 2, ++seed);
    s.seq = 24;
    suite.push_back(encoder_workload("nlp/longformer-ish-0", s, 0.25f, MetricKind::kTop1,
                                     0.0, 0.0f, "NLP", "longformer-ish",
                                     "text-classification", 0.95));
    TransformerSpec s2 = nlp_encoder_spec(32, 2, ++seed);
    s2.seq = 24;
    suite.push_back(encoder_workload("nlp/longformer-ish-1", s2, 0.25f, MetricKind::kTop1,
                                     0.01, 6000.0f, "NLP", "longformer-ish",
                                     "text-classification", 0.95));
  }
  // 2 speech models (Wav2Vec2 / HuBERT stand-ins; continuous metric).
  for (int i = 0; i < 2; ++i) {
    MlpSpec s;
    s.in_dim = 64;
    s.hidden = 96;
    s.layers = 2;
    s.out_dim = 32;
    s.layernorm = true;
    s.outlier_channel_fraction = 0.04f;
    s.outlier_gamma_gain = 6.0f;
    s.seed = ++seed;
    suite.push_back(mlp_workload(i == 0 ? "wav2vec2-ish" : "hubert-ish", s, 0.3f,
                                 MetricKind::kNmse, "NLP", "speech-recognition",
                                 "wav2vec-ish"));
  }
  // 1 recommender (DLRM).
  {
    DlrmSpec s;
    s.seed = ++seed;
    suite.push_back(dlrm_workload("dlrm-ish", s, 0.3f, 0.02));
  }

  if (suite.size() != 75) {
    throw std::logic_error("build_suite: expected 75 workloads, got " +
                           std::to_string(suite.size()));
  }
  return suite;
}

std::vector<Workload> quick_suite(const std::vector<Workload>& suite) {
  std::vector<Workload> subset;
  for (std::size_t i = 0; i < suite.size(); i += 5) subset.push_back(suite[i]);
  return subset;
}

namespace {

/// evaluate_suite and evaluate_table2 on the one driver, evaluate_pairs:
/// a job per workload, built in the stream, with a config per scheme,
/// then with `int8_row` one for int8_scheme(domain != "CV") whose record
/// is labelled "INT8".
std::vector<AccuracyRecord> suite_records(const std::vector<Workload>& suite,
                                          const std::vector<SchemeConfig>& schemes,
                                          bool int8_row, const EvalProtocol& protocol,
                                          const std::function<void(int)>& progress) {
  std::vector<EvalJob> jobs(suite.size());
  for (std::size_t w = 0; w < suite.size(); ++w) {
    jobs[w].workload = &suite[w];
    for (const SchemeConfig& scheme : schemes) {
      jobs[w].configs.push_back(default_model_config(suite[w], scheme, protocol));
    }
    if (int8_row) {
      jobs[w].configs.push_back(
          default_model_config(suite[w], int8_scheme(suite[w].domain != "CV"), protocol));
    }
  }
  std::vector<AccuracyRecord> records;
  for (PairResult& result : evaluate_pairs(jobs, protocol, progress)) {
    records.push_back(std::move(result.record));
    // Each workload's last config is its INT8 row.
    if (int8_row && records.size() % (schemes.size() + 1) == 0) records.back().config = "INT8";
  }
  return records;
}

}  // namespace

std::vector<AccuracyRecord> evaluate_suite(const std::vector<Workload>& suite,
                                           const std::vector<SchemeConfig>& schemes,
                                           const EvalProtocol& protocol,
                                           const std::function<void(int)>& progress) {
  return suite_records(suite, schemes, false, protocol, progress);
}

std::vector<AccuracyRecord> evaluate_table2(const std::vector<Workload>& suite,
                                            const std::vector<SchemeConfig>& fp8_schemes,
                                            const EvalProtocol& protocol,
                                            const std::function<void(int)>& progress) {
  return suite_records(suite, fp8_schemes, true, protocol, progress);
}

const Workload& find_workload(const std::vector<Workload>& suite, const std::string& name) {
  for (const auto& w : suite) {
    if (w.name == name) return w;
  }
  throw std::out_of_range("workload not found: " + name);
}

std::vector<std::string> table3_workload_names() {
  return {"resnet50-ish",  "densenet121-ish",    "wav2vec2-ish",
          "dlrm-ish",      "bert-base-stsb-ish", "bert-large-cola-ish",
          "distilbert-mrpc-ish", "bloom7b-ish",  "bloom176b-ish",
          "llama65b-ish"};
}

std::vector<SchemeConfig> table2_fp8_schemes() {
  return {standard_fp8_scheme(DType::kE5M2),
          standard_fp8_scheme(DType::kE4M3, false),
          standard_fp8_scheme(DType::kE4M3, true),
          standard_fp8_scheme(DType::kE3M4, false),
          standard_fp8_scheme(DType::kE3M4, true)};
}

}  // namespace fp8q
