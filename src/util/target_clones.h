// Function multi-versioning for the hot numeric kernels (GEMM, the
// quantized dot products, tensor/vmath). The binary stays baseline x86-64
// — no -march flag leaks into the portable build — and the dynamic
// loader's ifunc resolver picks the x86-64-v3 (AVX2 + FMA) clone on CPUs
// that have it.
//
// Rounding: g++ compiles C++ with -ffp-contract=fast, ISO -std=c++20
// included, so inside the v3 clone the compiler fuses a multiply and a
// dependent add into one FMA that rounds once instead of twice. The
// baseline clone has no FMA instruction and cannot. A cloned kernel is
// deterministic on a given host (thread count and tiling never change its
// results), but its floats can differ between hosts whose resolvers pick
// different clones. A kernel that must round exactly like scalar baseline
// code is compiled with -ffp-contract=off (tensor/vmath.cc is).
//
// Sanitizer builds drop the clones: the TSan/ASan runtimes intercept
// ifunc resolution and crash on multi-versioned symbols.
#ifndef CROSSEM_UTIL_TARGET_CLONES_H_
#define CROSSEM_UTIL_TARGET_CLONES_H_

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define CROSSEM_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CROSSEM_TARGET_CLONES
#endif

#endif  // CROSSEM_UTIL_TARGET_CLONES_H_
