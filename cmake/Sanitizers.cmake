# Sanitizer build tiers.
#
# Set CARDIR_SANITIZE to pick a tier (the CMakePresets.json presets do):
#   asan-ubsan — AddressSanitizer + UndefinedBehaviorSanitizer (gcc/clang),
#                with libstdc++'s bounds-checked containers
#   tsan       — ThreadSanitizer, for the thread-pool/batch-engine suite
#   msan       — MemorySanitizer (clang only; needs instrumented stdlib for
#                a clean run, so it is the optional tier)
#
# Flags are applied globally (add_compile_options/add_link_options) so every
# target — libraries, tests, benchmarks — is instrumented consistently;
# mixing instrumented and uninstrumented translation units produces false
# positives and missed reports.
#
# CARDIR_SANITIZER_ENV collects the runtime options (including the
# checked-in suppression files under tools/sanitizers/) that
# tests/CMakeLists.txt attaches to every test's ENVIRONMENT, so a plain
# `ctest` run in a sanitizer build tree picks them up without shell setup.

set(CARDIR_SANITIZE "" CACHE STRING
    "Sanitizer tier: empty, asan-ubsan, tsan, or msan")
set_property(CACHE CARDIR_SANITIZE PROPERTY STRINGS "" asan-ubsan tsan msan)

set(CARDIR_SANITIZER_ENV "")
set(_cardir_suppressions_dir "${CMAKE_SOURCE_DIR}/tools/sanitizers")

if(CARDIR_SANITIZE STREQUAL "")
  # Plain build: nothing to do.
elseif(CARDIR_SANITIZE STREQUAL "asan-ubsan")
  set(_cardir_san_flags
      -fsanitize=address,undefined
      -fno-sanitize-recover=all
      -fno-omit-frame-pointer
      -g)
  add_compile_options(${_cardir_san_flags})
  add_link_options(${_cardir_san_flags})
  # Bounds-checked standard containers: positions index Configuration's
  # regions, the store's rows and the delta engine's partner accessor, and
  # ASan does not see an index that lands inside a vector's capacity.
  add_compile_definitions(_GLIBCXX_ASSERTIONS)
  list(APPEND CARDIR_SANITIZER_ENV
      "ASAN_OPTIONS=detect_stack_use_after_return=1:strict_string_checks=1:detect_invalid_pointer_pairs=2"
      "LSAN_OPTIONS=suppressions=${_cardir_suppressions_dir}/lsan.supp"
      "UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1:suppressions=${_cardir_suppressions_dir}/ubsan.supp")
elseif(CARDIR_SANITIZE STREQUAL "tsan")
  set(_cardir_san_flags
      -fsanitize=thread
      -fno-omit-frame-pointer
      -g)
  add_compile_options(${_cardir_san_flags})
  add_link_options(${_cardir_san_flags})
  list(APPEND CARDIR_SANITIZER_ENV
      "TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1:suppressions=${_cardir_suppressions_dir}/tsan.supp")
elseif(CARDIR_SANITIZE STREQUAL "msan")
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
    message(FATAL_ERROR
        "CARDIR_SANITIZE=msan requires clang (gcc has no MemorySanitizer); "
        "configure with -DCMAKE_CXX_COMPILER=clang++ or pick asan-ubsan/tsan.")
  endif()
  set(_cardir_san_flags
      -fsanitize=memory
      -fsanitize-memory-track-origins
      -fno-omit-frame-pointer
      -g)
  add_compile_options(${_cardir_san_flags})
  add_link_options(${_cardir_san_flags})
  list(APPEND CARDIR_SANITIZER_ENV
      "MSAN_OPTIONS=halt_on_error=1")
else()
  message(FATAL_ERROR "Unknown CARDIR_SANITIZE value '${CARDIR_SANITIZE}' "
                      "(expected empty, asan-ubsan, tsan, or msan)")
endif()

if(NOT CARDIR_SANITIZE STREQUAL "")
  # Sanitizer runs want symbolised stacks and real line info even in
  # optimised tiers; RelWithDebInfo presets already pass -g, Debug keeps
  # everything. Nothing else to force here — build type stays the caller's
  # choice.
  message(STATUS "cardir: sanitizer tier '${CARDIR_SANITIZE}' enabled")
endif()
