# gpufreq_add_header_selfcontain_checks(<module>)
#
# Enforces header self-containment permanently in the build: for every
# public header under src/<module>/include/, generate a one-line
# translation unit that includes just that header, and compile all of them
# into an OBJECT library `gpufreq_selfcontain_<module>` built with the full
# `gpufreq_warnings` set. A header that secretly depends on its includer
# (missing <string>, undeclared gpufreq type, ...) breaks the build right
# here instead of in whichever consumer reshuffles its includes next.
#
# The object targets are part of ALL, and each module also registers a
# ctest entry `selfcontain_<module>` that re-drives the target build, so a
# plain `ctest` run reports self-containment per module. The ctest entries
# share a RESOURCE_LOCK because concurrent build-system invocations in one
# build tree are not safe.
#
# tools/analyze/gpufreq_arch.py --check selfcontain performs the same check
# compiler-only (no CMake) for the fixture tests and standalone runs; the
# analysis gate (tools/run_static_analysis.sh) relies on these targets,
# built by its -Werror stage.

function(gpufreq_add_header_selfcontain_checks module)
  set(inc_dir "${CMAKE_CURRENT_SOURCE_DIR}/include")
  if(NOT IS_DIRECTORY "${inc_dir}")
    message(FATAL_ERROR "gpufreq_add_header_selfcontain_checks(${module}): "
      "no include/ directory at ${inc_dir}")
  endif()

  file(GLOB_RECURSE headers CONFIGURE_DEPENDS "${inc_dir}/*.hpp")
  if(NOT headers)
    message(FATAL_ERROR "gpufreq_add_header_selfcontain_checks(${module}): "
      "no public headers under ${inc_dir}")
  endif()

  set(tus)
  foreach(header IN LISTS headers)
    file(RELATIVE_PATH rel "${inc_dir}" "${header}")
    string(REGEX REPLACE "[/.]" "_" stem "${rel}")
    set(tu "${CMAKE_CURRENT_BINARY_DIR}/selfcontain/${stem}.cpp")
    # file(GENERATE) leaves the TU untouched when the content is unchanged,
    # so reconfiguring does not trigger spurious recompiles.
    file(GENERATE OUTPUT "${tu}" CONTENT "#include \"${rel}\"\n")
    list(APPEND tus "${tu}")
  endforeach()

  add_library(gpufreq_selfcontain_${module} OBJECT ${tus})
  target_link_libraries(gpufreq_selfcontain_${module} PRIVATE
    gpufreq::${module} gpufreq_warnings)

  if(GPUFREQ_BUILD_TESTS)
    add_test(NAME selfcontain_${module}
      COMMAND "${CMAKE_COMMAND}" --build "${CMAKE_BINARY_DIR}"
              --target gpufreq_selfcontain_${module})
    list(LENGTH headers n_headers)
    set_tests_properties(selfcontain_${module} PROPERTIES
      TIMEOUT 300
      RESOURCE_LOCK gpufreq_build_tree
      LABELS "selfcontain")
    message(STATUS "selfcontain_${module}: ${n_headers} public header(s)")
  endif()
endfunction()
