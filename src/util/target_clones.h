// Runtime ISA dispatch for batched kernels. Its only user is the
// Compute-CDR% trapezoid accumulation (`AccumulateTrapezoidsSoA` in
// core/compute_cdr_percent.cc).
//
// Such a kernel is pure streaming arithmetic that vectorizes wider under
// AVX2, but the library targets the baseline x86-64 ABI; function
// multi-versioning compiles each annotated entry point once per listed ISA
// and the loader picks via the GNU ifunc mechanism, so the kernel reaches
// vector speed without -march flags leaking into the build. Disabled under
// the sanitizers (ifunc resolvers run before their runtimes initialise —
// ASan intercepts the resolver's memory before shadow setup) and on
// non-GCC/non-x86 toolchains, where the plain definition stands.
//
// `kKernelClonesActive` mirrors the macro so tests can assert the clones
// really are compiled out in sanitizer builds (tests/core/edge_soa_test.cc).

#ifndef CARDIR_UTIL_TARGET_CLONES_H_
#define CARDIR_UTIL_TARGET_CLONES_H_

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define CARDIR_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#define CARDIR_KERNEL_CLONES_ACTIVE 1
#else
#define CARDIR_KERNEL_CLONES
#define CARDIR_KERNEL_CLONES_ACTIVE 0
#endif

namespace cardir {

/// True when CARDIR_KERNEL_CLONES expands to a target_clones attribute in
/// this build (i.e. multi-versioned kernels with ifunc dispatch); false in
/// sanitizer builds and on toolchains without the mechanism.
inline constexpr bool kKernelClonesActive = CARDIR_KERNEL_CLONES_ACTIVE == 1;

}  // namespace cardir

#endif  // CARDIR_UTIL_TARGET_CLONES_H_
