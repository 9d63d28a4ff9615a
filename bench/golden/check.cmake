# Runs BENCH and fails unless its stdout equals the GOLDEN file byte for byte.
# Usage: cmake -DBENCH=<binary> -DGOLDEN=<file> -P check.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual output in "
                      "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
