// Quantized serving-index contracts (DESIGN.md §16): CEMCKPT2
// round-trips restore blocks and scales bitwise, a corrupted scale
// record is rejected wholesale, the "<index>.f32rank" side file is
// optional-but-validated, exact re-rank holds recall, and sharded
// partition gathers quantized rows bit-identically.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/index.h"
#include "serve/sharded.h"
#include "tensor/tensor.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace crossem {
namespace serve {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<std::string> MakeIds(int64_t n) {
  std::vector<std::string> ids;
  ids.reserve(n);
  for (int64_t i = 0; i < n; ++i) ids.push_back("img" + std::to_string(i));
  return ids;
}

Tensor ClusteredVectors(int64_t n, int64_t dim, uint64_t seed,
                        int64_t clusters = 16) {
  Rng rng(seed);
  Tensor centers = Tensor::Randn({clusters, dim}, &rng, 1.0f);
  Tensor out = Tensor::Randn({n, dim}, &rng, 0.25f);
  float* o = out.data();
  const float* c = centers.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t cl = rng.UniformInt(0, clusters - 1);
    for (int64_t d = 0; d < dim; ++d) o[i * dim + d] += c[cl * dim + d];
  }
  return out;
}

std::unique_ptr<EmbeddingIndex> MakeIndex(const std::string& backend,
                                          quant::QuantFormat format) {
  if (backend == "flat") return std::make_unique<FlatIndex>(format);
  HnswOptions ho;
  ho.ef_search = 96;
  return std::make_unique<HnswIndex>(ho, format);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(QuantIndexTest, SaveLoadRestoresBlocksAndScalesBitwise) {
  const int64_t n = 220, dim = 12;
  Tensor corpus = ClusteredVectors(n, dim, 91);
  Tensor queries = ClusteredVectors(8, dim, 92);

  for (const char* backend : {"flat", "hnsw"}) {
    for (const quant::QuantFormat format :
         {quant::QuantFormat::kF16, quant::QuantFormat::kInt8}) {
      auto index = MakeIndex(backend, format);
      ASSERT_TRUE(index->Add(corpus, MakeIds(n)).ok());
      EXPECT_EQ(index->quant_format(), format);
      index->set_rerank_k(48);
      const std::string path = TempPath("quant_roundtrip.cidx");
      ASSERT_TRUE(index->Save(path).ok());
      ASSERT_TRUE(io::FileExists(quant::ExactSidePath(path)));

      auto loaded = EmbeddingIndex::Load(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const EmbeddingIndex& re = *loaded.value();
      EXPECT_EQ(re.quant_format(), format);
      EXPECT_EQ(re.rerank_k(), 48);
      EXPECT_EQ(re.ids(), index->ids());
      ASSERT_NE(re.exact_store(), nullptr);
      EXPECT_EQ(re.exact_store()->size(), n);

      // The quantized payload survives bitwise — blocks and scales.
      EXPECT_EQ(re.quant_store().f16_rows(), index->quant_store().f16_rows());
      EXPECT_EQ(re.quant_store().int8_rows(),
                index->quant_store().int8_rows());
      EXPECT_EQ(re.quant_store().scales(), index->quant_store().scales());

      // And the exact side rows match the in-memory exact store.
      std::vector<float> a(dim), b(dim);
      for (int64_t i : {int64_t{0}, n / 2, n - 1}) {
        ASSERT_TRUE(index->exact_store()->Row(i, a.data()));
        ASSERT_TRUE(re.exact_store()->Row(i, b.data()));
        EXPECT_EQ(a, b) << backend << " row " << i;
      }

      for (int64_t qi = 0; qi < 8; ++qi) {
        const float* q = queries.data() + qi * dim;
        auto x = index->Search(q, 10);
        auto y = re.Search(q, 10);
        ASSERT_EQ(x.size(), y.size()) << backend;
        for (size_t j = 0; j < x.size(); ++j) {
          EXPECT_EQ(x[j].id, y[j].id) << backend;
          EXPECT_EQ(x[j].score, y[j].score) << backend;
        }
      }
      std::remove(path.c_str());
      std::remove(quant::ExactSidePath(path).c_str());
    }
  }
}

TEST(QuantIndexTest, CorruptScaleRecordRejected) {
  const int64_t n = 96, dim = 10;
  Tensor corpus = ClusteredVectors(n, dim, 101);
  FlatIndex index(quant::QuantFormat::kInt8);
  ASSERT_TRUE(index.Add(corpus, MakeIds(n)).ok());
  const std::string path = TempPath("corrupt_scales.cidx");
  ASSERT_TRUE(index.Save(path).ok());

  std::string bytes = ReadAll(path);
  const size_t name = bytes.find("quant/scales");
  ASSERT_NE(name, std::string::npos);
  // Flip a byte inside the scale payload (past the name + kind + shape
  // header): the record CRC must reject the file wholesale.
  const size_t pos = name + std::string("quant/scales").size() + 40;
  ASSERT_LT(pos, bytes.size());
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
  WriteAll(path, bytes);
  auto loaded = EmbeddingIndex::Load(path);
  EXPECT_FALSE(loaded.ok());

  std::remove(path.c_str());
  std::remove(quant::ExactSidePath(path).c_str());
}

TEST(QuantIndexTest, MissingSideFileDisablesReRankButLoads) {
  const int64_t n = 150, dim = 8;
  Tensor corpus = ClusteredVectors(n, dim, 111);
  FlatIndex index(quant::QuantFormat::kF16);
  ASSERT_TRUE(index.Add(corpus, MakeIds(n)).ok());
  const std::string path = TempPath("no_side.cidx");
  ASSERT_TRUE(index.Save(path).ok());
  std::remove(quant::ExactSidePath(path).c_str());

  auto loaded = EmbeddingIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->exact_store(), nullptr);
  // Degraded but functional: searches answer from quantized scores.
  Tensor queries = ClusteredVectors(4, dim, 112);
  for (int64_t qi = 0; qi < 4; ++qi) {
    auto got = loaded.value()->Search(queries.data() + qi * dim, 5);
    EXPECT_EQ(got.size(), 5u);
    for (const auto& m : got) EXPECT_LE(std::abs(m.score), 1.0001f);
  }
  std::remove(path.c_str());
}

TEST(QuantIndexTest, InvalidSideFileRejected) {
  const int64_t n = 80, dim = 8;
  Tensor corpus = ClusteredVectors(n, dim, 121);
  FlatIndex index(quant::QuantFormat::kInt8);
  ASSERT_TRUE(index.Add(corpus, MakeIds(n)).ok());
  const std::string path = TempPath("bad_side.cidx");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string side = quant::ExactSidePath(path);

  // Header byte flip (magic) and truncation must both fail the load.
  std::string bytes = ReadAll(side);
  ASSERT_GT(bytes.size(), 64u);
  std::string bad = bytes;
  bad[3] ^= 0x40;
  WriteAll(side, bad);
  EXPECT_FALSE(EmbeddingIndex::Load(path).ok());

  WriteAll(side, bytes.substr(0, bytes.size() - 7));
  EXPECT_FALSE(EmbeddingIndex::Load(path).ok());

  std::remove(path.c_str());
  std::remove(side.c_str());
}

TEST(QuantIndexTest, ReRankRestoresExactOrderOnSmallWorlds) {
  // With rerank_k >= n the pipeline must return the exact f32 order:
  // the quantized scan only selects candidates, the f32 re-rank ranks.
  const int64_t n = 300, dim = 16;
  Tensor corpus = ClusteredVectors(n, dim, 131);
  Tensor queries = ClusteredVectors(20, dim, 132);

  FlatIndex exact;
  ASSERT_TRUE(exact.Add(corpus, MakeIds(n)).ok());
  for (const quant::QuantFormat format :
       {quant::QuantFormat::kF16, quant::QuantFormat::kInt8}) {
    FlatIndex quantized(format);
    ASSERT_TRUE(quantized.Add(corpus, MakeIds(n)).ok());
    quantized.set_rerank_k(n);
    for (int64_t qi = 0; qi < 20; ++qi) {
      const float* q = queries.data() + qi * dim;
      auto want = exact.Search(q, 10);
      auto got = quantized.Search(q, 10);
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].id, want[j].id)
            << quant::FormatName(format) << " query " << qi << " rank " << j;
        EXPECT_EQ(got[j].score, want[j].score);
      }
    }
  }
}

TEST(QuantIndexTest, RecallAtTenWithDefaultReRankDepth) {
  const int64_t n = 2000, dim = 16, num_queries = 100, k = 10;
  Tensor corpus = ClusteredVectors(n, dim, 141);
  Tensor queries = ClusteredVectors(num_queries, dim, 142);

  FlatIndex exact;
  ASSERT_TRUE(exact.Add(corpus, MakeIds(n)).ok());
  for (const quant::QuantFormat format :
       {quant::QuantFormat::kF16, quant::QuantFormat::kInt8}) {
    FlatIndex quantized(format);
    ASSERT_TRUE(quantized.Add(corpus, MakeIds(n)).ok());
    int64_t found = 0;
    for (int64_t qi = 0; qi < num_queries; ++qi) {
      const float* q = queries.data() + qi * dim;
      auto want = exact.Search(q, k);
      auto got = quantized.Search(q, k);
      for (const auto& w : want) {
        for (const auto& g : got) {
          if (g.id == w.id) {
            ++found;
            break;
          }
        }
      }
    }
    const double recall =
        static_cast<double>(found) / static_cast<double>(num_queries * k);
    EXPECT_GE(recall, 0.99)
        << quant::FormatName(format) << " recall@10 = " << recall;
  }
}

TEST(QuantIndexTest, VectorBytesShrinkWithTheFormat) {
  const int64_t n = 128, dim = 32;
  Tensor corpus = ClusteredVectors(n, dim, 151);
  FlatIndex f32;
  FlatIndex f16(quant::QuantFormat::kF16);
  FlatIndex int8(quant::QuantFormat::kInt8);
  ASSERT_TRUE(f32.Add(corpus, MakeIds(n)).ok());
  ASSERT_TRUE(f16.Add(corpus, MakeIds(n)).ok());
  ASSERT_TRUE(int8.Add(corpus, MakeIds(n)).ok());
  // The acceptance ceilings, exact at dim 32: 0.5x and 0.28125x.
  EXPECT_EQ(f32.VectorBytes(), n * dim * 4);
  EXPECT_LE(f16.VectorBytes() * 100, f32.VectorBytes() * 55);
  EXPECT_LE(int8.VectorBytes() * 100, f32.VectorBytes() * 30);
  EXPECT_GT(f32.MemoryBytes(), f32.VectorBytes());  // ids count too
}

TEST(QuantShardedTest, PartitionGathersQuantizedRowsBitwise) {
  const int64_t n = 400, dim = 12;
  Tensor corpus = ClusteredVectors(n, dim, 161);
  Tensor queries = ClusteredVectors(10, dim, 162);

  for (const quant::QuantFormat format :
       {quant::QuantFormat::kF16, quant::QuantFormat::kInt8}) {
    FlatIndex source(format);
    ASSERT_TRUE(source.Add(corpus, MakeIds(n)).ok());
    ShardedIndexOptions so;
    so.num_shards = 4;
    auto sharded = ShardedIndex::Partition(source, so);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    int64_t total = 0;
    for (int64_t s = 0; s < sharded.value()->num_shards(); ++s) {
      const EmbeddingIndex& shard = sharded.value()->shard(s);
      EXPECT_EQ(shard.quant_format(), format);
      total += shard.size();
      // Every shard row's quantized bytes must equal the source's for
      // the same external id (bitwise gather, no re-quantization).
      std::vector<float> a(dim), b(dim);
      for (int64_t r = 0; r < shard.size(); ++r) {
        const auto& id = shard.ids()[r];
        const auto it =
            std::find(source.ids().begin(), source.ids().end(), id);
        ASSERT_NE(it, source.ids().end());
        const int64_t src_row = it - source.ids().begin();
        shard.quant_store().DequantizeRow(r, a.data());
        source.quant_store().DequantizeRow(src_row, b.data());
        EXPECT_EQ(a, b) << "shard " << s << " row " << r;
      }
    }
    EXPECT_EQ(total, n);

    // Scatter-gather over quantized shards merges to the single-index
    // answer (both re-rank from the same shared exact store).
    for (int64_t qi = 0; qi < 10; ++qi) {
      const float* q = queries.data() + qi * dim;
      auto want = source.Search(q, 10);
      std::vector<std::vector<eval::ScoredId>> parts;
      for (int64_t s = 0; s < sharded.value()->num_shards(); ++s) {
        parts.push_back(
            sharded.value()->SearchShard(s, q, 10, kNoSearchDeadline));
      }
      auto got = eval::MergeTopK(parts, 10);
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].id, want[j].id)
            << quant::FormatName(format) << " query " << qi;
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace crossem
