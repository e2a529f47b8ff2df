// 4-lane double vectors for the bit-identical batch kernels (rc, tech, ml).
//
// GCC vector extensions: v4df arithmetic is elementwise IEEE, so lane k of
// a vector expression is the scalar expression on element k, and a kernel
// keeps the scalar bits as long as each lane keeps its operands and order.
// A SKEWOPT_VEC_CLONES kernel is compiled for AVX2 and for the baseline
// target and dispatched at load time; neither clone enables FMA. Loads and
// stores are unaligned (memcpy).
#pragma once

#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// target_clones is disabled under TSan/ASan: the generated ifunc
// resolvers run during relocation, before the sanitizer runtime is
// initialized, and the instrumented function entries crash at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define SKEWOPT_VEC_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define SKEWOPT_VEC_CLONES
#endif

namespace skewopt::support {

typedef double v4df __attribute__((vector_size(32)));

__attribute__((always_inline)) inline v4df load4(const double* p) {
  v4df v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((always_inline)) inline void store4(double* p, const v4df& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

}  // namespace skewopt::support
