// Runtime CPU-feature dispatch for the GEMM/quantize micro-kernels.
//
// The k-outer GEMM kernel, attention's Q·K and P·V kernels, the f16
// quantization sweep and the exponential exist in two tiers — SSE (the
// portable reference) and AVX2+F16C+FMA, the latter compiled as a separate
// arch-flagged translation
// unit (tensor/kernels_avx2.cpp) — selected at runtime from a cpuid probe.
// The `FT2_KERNEL` environment variable (or `ft2 --kernel`) forces a tier.
//
// Bit-exactness policy: every tier accumulates each output element as the
// same scalar chain `acc += x[i] * w[o][i]` in ascending-i order with a
// separate multiply and add per step (never FMA). A tier may change the
// register group — which output elements share one register, its width,
// and how many input rows one pass over a weight tile serves — but never
// the per-element operation sequence, so all tiers produce results
// bit-identical to the scalar/SSE reference and no baselines need
// re-pinning per tier or per host. Packed weight tiles have one width for
// every tier (kTileCols), so tiles never depend on the active tier either.
// The arch TU is compiled with -ffp-contract=off as a belt. On an AVX-512F
// host the AVX2 tier's GEMM runs four rows per pass in 512-bit registers
// (KernelOps::gemm_body says which body runs); that is the same tier with
// the same results, so it adds no KernelTier and no FT2_KERNEL value. The
// body is a target("avx512f") function inside the -mavx2 TU, so it must
// keep internal linkage and run only behind the probe (the ODR note in
// kernels_avx2.cpp). Attention's kernels
// follow the same rule on head-interleaved keys (see qk_heads): each score
// is the chain `s += k[i] * q[i]` over ascending head dims, each output
// element the chain `y += p[j] * v[j]` over ascending keys (zero p[j]
// skipped), and the vector tier puts heads side by side in its lanes.
//
// Exponential contract: every model exponential (softmax, SiLU, the
// training loss) is detail::expf_ref, glibc's expf algorithm: a 32-entry
// 2^(i/32) table and a cubic in double precision, with FMA at the four
// sites glibc's FMA build fuses. It equals glibc 2.36's x86-64 std::exp on
// all 2^32 float inputs (bench_kernels --exp-sweep), so adopting it changed
// no recorded output, and it makes results independent of the host's
// libm. KernelOps::exp_span is the span form: the SSE tier loops over
// expf_ref; the AVX2 tier runs the same double-precision steps four lanes
// at a time. FMA appears only in these exp functions, never in an
// accumulation chain.
//
// The epilogue (KernelEpilogue) is not part of the GEMM: every GEMM stores
// plain math, and KernelOps::epilogue_span sweeps the stored span
// afterwards. It serves two callers: the f16-grid quantization the engine
// runs right after each site's GEMM (quantize_span_f16), and range
// restriction (protect/range_restriction.hpp: NaN→0, out-of-bound clip),
// which protection hooks run on their dispatched spans. The epilogue's
// scalar reference implementation lives in dispatch.cpp; the AVX2 tier
// fast-paths the clean case and falls back to that exact scalar code for
// any lane group that contains a NaN or an out-of-bound value, so every
// tier produces bit-identical values, tallies and events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace ft2 {

enum class KernelTier : int {
  kSse = 0,   ///< portable reference (SSE2 on x86-64, scalar elsewhere)
  kAvx2 = 1,  ///< AVX2 + F16C + FMA
};

constexpr std::size_t kKernelTierCount = 2;

/// Columns per packed weight tile, on every tier: AVX2 holds a tile row's
/// accumulators in four 8-lane registers, SSE in eight 4-lane registers.
constexpr std::size_t kTileCols = 32;

/// Epilogue request: optional f16-grid quantization followed by one
/// protection mode. quantize_span_f16 asks for quantization alone;
/// range_restrict folds its bounds and ClipPolicy into a protection mode
/// with quantization off.
struct KernelEpilogue {
  /// Protection applied after quantization (bounds are checked against
  /// the quantized value).
  enum class Protect {
    kNone = 0,  ///< no protection work (quantize only)
    kNanOnly,   ///< invalid bounds: count/correct NaN only
    kBounds,    ///< full range restriction against [lo, hi]
  };

  bool quantize = false;     ///< f16 round-trip first (fp16 execution)
  Protect protect = Protect::kNone;
  bool correct_nan = false;  ///< kBounds: whether NaNs are counted/zeroed
  bool detect_only = false;  ///< count violations without modifying
  float lo = 0.0f, hi = 0.0f;          ///< kBounds: scaled bounds
  float lo_sub = 0.0f, hi_sub = 0.0f;  ///< clip replacement per side
                                       ///< (ClipPolicy folded in)
  bool record_events = false;  ///< collect (index, original) per clip
};

/// One out-of-bound event observed by the epilogue: flat index into the
/// swept span and the pre-correction (post-quantize) value — the pair
/// range_restrict replays into ClipObserver::on_oob.
struct EpilogueEvent {
  std::size_t index = 0;
  float original = 0.0f;
};

/// Accounting of one epilogue sweep. The sweep runs in ascending flat
/// index, so events arrive in index order.
struct EpilogueTally {
  std::size_t nan = 0;  ///< NaNs counted (and zeroed unless detect_only)
  std::size_t oob = 0;  ///< out-of-bound values counted (clipped unless
                        ///< detect_only)
  std::vector<EpilogueEvent> events;  ///< only when epi.record_events
};

/// One dispatch tier's kernel function table. All tiers share semantics and
/// bit-exact results; they differ in instruction set.
struct KernelOps {
  KernelTier tier = KernelTier::kSse;
  const char* name = "sse";

  /// k-outer micro-kernel: `rows` input rows (row r at x + r * ldx, k
  /// floats) against one packed weight tile `wt[k][kTileCols]`
  /// (zero-padded), every row's accumulators seeded from
  /// `bias_padded[kTileCols]`. Stores the first `width` lanes of row r to
  /// y + r * ldy. The SSE tier runs one row per pass over the tile; the
  /// AVX2 tier runs four rows per pass in 512-bit registers on AVX-512F
  /// hosts (the leftover rows one at a time in 256-bit registers), and
  /// every row one at a time elsewhere.
  void (*kouter_rows)(const float* x, std::size_t ldx, std::size_t rows,
                      const float* wt, std::size_t k,
                      const float* bias_padded, float* y, std::size_t ldy,
                      std::size_t width) = nullptr;

  /// Which kouter_rows body this table runs on this host, for `ft2
  /// kernel-info` and the kernel bench's records.
  const char* gemm_body = "";

  /// Attention's Q·K over one run of `n` cached keys, every head at once.
  /// Keys are head-interleaved (nn/kv_cache.hpp): element (head h, dim i)
  /// of key j sits at k[j * d + i * n_heads + h], d = n_heads * head_dim,
  /// and `q` is the query in the same layout. Writes the [n][n_heads]
  /// score block s[j * n_heads + h] = sum over ascending i of
  /// k[j * d + i * n_heads + h] * q[i * n_heads + h], each chain starting
  /// from 0.0f with a separate multiply and add per step. The AVX2 tier
  /// holds 8 heads (then 4) of several keys in its lanes; leftover heads
  /// run the scalar chain.
  void (*qk_heads)(const float* q, const float* k, std::size_t n,
                   std::size_t n_heads, std::size_t head_dim,
                   float* s) = nullptr;

  /// Attention's P·V over one run of `n` cached values (rows d = n_heads *
  /// head_dim floats apart, head-major as projected): for j ascending in
  /// [0, n) and every head h, skipping p[j * n_heads + h] == 0.0f (either
  /// sign), y[h * head_dim + c] += p[j * n_heads + h] * v[j * d + h *
  /// head_dim + c] for c in [0, head_dim). Each y element is its own
  /// ascending-j mul-then-add chain. The skip decides whether a zero
  /// probability meets an Inf or NaN value (0 * Inf is NaN), so every tier
  /// keeps it. `y` must hold no -0.0f: the AVX2 tier adds a masked +0.0f in
  /// place of a skipped product, which equals skipping for any other
  /// value, and attention starts every output at +0.0f, which a sum never
  /// turns into -0.0f.
  void (*pv_heads)(const float* p, const float* v, std::size_t n,
                   std::size_t n_heads, std::size_t head_dim,
                   float* y) = nullptr;

  /// One-sweep epilogue over a contiguous span: quantize_span_f16 (run
  /// right after every site's producer) and range_restrict call it.
  /// Applies `epi` in place to v[0..n); `flat0` offsets event indices.
  /// `tally` may be null only when `epi` carries no protection.
  void (*epilogue_span)(float* v, std::size_t n, std::size_t flat0,
                        const KernelEpilogue& epi,
                        EpilogueTally* tally) = nullptr;

  /// y[i] = detail::expf_ref(x[i]) for i in [0, n), bit for bit on every
  /// tier. `x` and `y` may be the same array (in-place), but must not
  /// otherwise overlap.
  void (*exp_span)(const float* x, float* y, std::size_t n) = nullptr;
};

/// The currently selected tier's function table. First use probes the CPU
/// and honours `FT2_KERNEL` (sse|avx2|auto; unknown or unsupported
/// values throw ft2::Error).
const KernelOps& active_kernel_ops();
KernelTier active_kernel_tier();

/// Tier availability: compiled_in — the arch TU was built with the needed
/// flags; supported — compiled in AND the running CPU has the features.
bool kernel_tier_compiled(KernelTier tier);
bool kernel_tier_supported(KernelTier tier);
std::vector<KernelTier> supported_kernel_tiers();

/// Forces a tier (CLI --kernel, tests). Throws ft2::Error when the tier is
/// not supported on this host. Takes effect on the next kernel call:
/// packed weights hold no tier state, so nothing needs repacking.
void set_kernel_tier(KernelTier tier);
/// Parses and forces a tier by name ("sse" | "avx2" | "auto");
/// "auto" re-runs the default probe. Throws ft2::Error on unknown names.
void set_kernel_tier_name(std::string_view name);

const char* kernel_tier_name(KernelTier tier);
std::optional<KernelTier> parse_kernel_tier(std::string_view name);

/// Function table of a specific tier (tests/bench). Throws when
/// unsupported on this host.
const KernelOps& kernel_ops_for(KernelTier tier);

/// Always false: protection runs only through the hook chain, never fused
/// into the post-GEMM sweep. Kept for the benchmark driver's host line
/// until it drops the field (ROADMAP item 4).
bool fused_epilogue_enabled();

namespace detail {

/// The scalar reference epilogue (quantize + protect, one pass). Defined in
/// dispatch.cpp — compiled with baseline flags — and shared by every tier:
/// the SSE tier uses it directly; the AVX2 tier calls it for lane
/// groups containing NaN/out-of-bound values and for span tails, keeping
/// all std:: machinery out of the arch-flagged TUs.
void epilogue_scalar_span(float* v, std::size_t n, std::size_t flat0,
                          const KernelEpilogue& epi, EpilogueTally* tally);

/// The scalar reference Q·K over heads [h0, n_heads) (KernelOps::qk_heads
/// semantics for those columns of the score block). The SSE tier is this
/// function with h0 = 0; the AVX2 tier calls it for the heads left over
/// after its last 8- or 4-head group.
void qk_heads_scalar(const float* q, const float* k, std::size_t n,
                     std::size_t n_heads, std::size_t head_dim,
                     std::size_t h0, float* s);

/// The scalar reference P·V over heads [h0, h1) and head dims [c0,
/// head_dim) (KernelOps::pv_heads semantics for those outputs). The SSE
/// tier is this function over every head and dim; the AVX2 tier calls it
/// for the dims and heads its vector passes leave over.
void pv_heads_scalar(const float* p, const float* v, std::size_t n,
                     std::size_t n_heads, std::size_t head_dim,
                     std::size_t h0, std::size_t h1, std::size_t c0,
                     float* y);

/// The reference exponential, glibc 2.36's expf (sysdeps/ieee754/flt-32/
/// e_expf.c) as its FMA build computes it. For x with |x| >= 88 or not a
/// number: -inf gives +0, inf and NaN give x + x, x > 0x1.62e42ep6f gives
/// +inf and x < -0x1.9fe368p6f gives +0; other such x take the main path.
/// Main path, in double: z = InvLn2N * x, kd = z + Shift (rounds z to an
/// integer k in its low bits), r = fma(InvLn2N, x, -(kd - Shift)),
/// s = 2^(k/32) from the table, then
/// (float)((fma(fma(C0, r, C1), r * r, fma(C2, r, 1.0))) * s).
/// Two copies of these steps exist, picked once by a CPU probe: on an FMA
/// host the fused steps are FMA instructions, elsewhere libm's fma calls
/// (exact on any host, but several times slower). Both are compiled with
/// contraction off, so only those four steps fuse, and they agree on every
/// input.
float expf_ref(float x);

/// expf_ref's constants, shared with the AVX2 tier. kExpfTable[i] is the
/// bit pattern of 2^(i/32) minus i << 47, so adding k << 47 to entry
/// k % 32 scales it by 2^(k / 32) (glibc's __exp2f_data.tab).
extern const std::uint64_t kExpfTable[32];
inline constexpr double kExpfInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
inline constexpr double kExpfShift = 0x1.8p+52;
inline constexpr double kExpfC0 = 0x1.c6af84b912394p-20;
inline constexpr double kExpfC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpfC2 = 0x1.62e42ff0c52d6p-6;
/// Bit patterns at and above which |x| takes expf_ref's special path
/// (88.0f, i.e. glibc's abstop >= 0x42b).
inline constexpr std::uint32_t kExpfSpecialAbsBits = 0x42b00000u;

/// The reference exp_span (the SSE tier): expf_ref per element.
void exp_span_scalar(const float* x, float* y, std::size_t n);

/// A one-row GEMM body: one input row against one packed weight tile.
using KouterRowFn = void (*)(const float* x, const float* wt, std::size_t k,
                             const float* bias_padded, float* y,
                             std::size_t width);

/// KernelOps::kouter_rows from a one-row body: row r runs at x + r * ldx
/// and y + r * ldy. Instantiate it only with a file-local (anonymous
/// namespace) body: the instantiation then has internal linkage too, so a
/// copy built in the -mavx2 TU can never stand in for another TU's.
template <KouterRowFn Row>
void kouter_rows_of(const float* x, std::size_t ldx, std::size_t rows,
                    const float* wt, std::size_t k, const float* bias_padded,
                    float* y, std::size_t ldy, std::size_t width) {
  for (std::size_t r = 0; r < rows; ++r) {
    Row(x + r * ldx, wt, k, bias_padded, y + r * ldy, width);
  }
}

/// The CPU probe for AVX-512F, read once. libgcc's probe also checks that
/// the OS saves the ZMM and mask registers. The AVX2 tier's table picks
/// its GEMM body from it.
bool cpu_has_avx512f();

/// Arch-TU registration point: the AVX2 function table for this host (the
/// four-row 512-bit GEMM when cpu_has_avx512f), or null when
/// kernels_avx2.cpp was compiled without its -m flags. It only selects
/// between two constant tables, so it runs no vector code and is safe to
/// call on a host without AVX2.
const KernelOps* kernel_ops_avx2();

}  // namespace detail

}  // namespace ft2
