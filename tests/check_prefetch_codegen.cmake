# Codegen gate for SummaryStore::AddBatch's window stage (GCC only): the
# stage's only effect is a write-intent prefetch of each key's next window
# line, and GCC has deleted such calls before (a helper whose only effect is
# __builtin_prefetch counts as const), leaving every append to miss on its
# window line with no test noticing.  This compiles the store's source at
# -O3 -DNDEBUG, whatever the build type, with the library's include
# directories and definitions, dumps GCC's last GIMPLE pass, and fails
# unless the body of SummaryStore::AddBatch there still calls
# __builtin_prefetch (..., 1, 3).  A dump without that function fails too:
# the gate would otherwise pass having checked nothing.
#
# Variables: CXX (the GCC compiler), SOURCE (store/summary_store.cc), INCLUDES
# and DEFINES ('|'-separated), DUMP (dump file to write), OBJECT (object
# file to write).

foreach(var CXX SOURCE DUMP OBJECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_prefetch_codegen: ${var} is not set")
  endif()
endforeach()

set(args -std=c++17 -O3 -DNDEBUG)
string(REPLACE "|" ";" include_dirs "${INCLUDES}")
foreach(dir IN LISTS include_dirs)
  list(APPEND args "-I${dir}")
endforeach()
string(REPLACE "|" ";" definitions "${DEFINES}")
foreach(definition IN LISTS definitions)
  list(APPEND args "-D${definition}")
endforeach()

file(REMOVE "${DUMP}")
execute_process(
  COMMAND ${CXX} ${args} "-fdump-tree-optimized=${DUMP}" -c "${SOURCE}"
          -o "${OBJECT}"
  RESULT_VARIABLE compile_result
  ERROR_VARIABLE compile_errors)
if(NOT compile_result EQUAL 0)
  message(FATAL_ERROR
    "check_prefetch_codegen: compiling ${SOURCE} failed:\n${compile_errors}")
endif()
if(NOT EXISTS "${DUMP}")
  message(FATAL_ERROR "check_prefetch_codegen: ${CXX} wrote no dump ${DUMP}")
endif()

# The body runs from the function's ";; Function" header to the next one.
file(READ "${DUMP}" dump)
set(dump "\n${dump}")
set(function_line ";; Function fasthist::SummaryStore::AddBatch (")
set(header "\n${function_line}")
string(FIND "${dump}" "${header}" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR
    "check_prefetch_codegen: no '${function_line}' in ${DUMP}: the gate "
    "cannot find AddBatch (renamed, or not emitted in ${SOURCE}?)")
endif()
string(LENGTH "${header}" header_length)
math(EXPR body_begin "${begin} + ${header_length}")
string(SUBSTRING "${dump}" ${body_begin} -1 body)
string(FIND "${body}" "\n;; Function " end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${body}" 0 ${end} body)
endif()

string(REGEX MATCHALL "__builtin_prefetch \\([^;\n]*, 1, 3\\)" writes "${body}")
string(REGEX MATCHALL "__builtin_prefetch \\([^;\n]*, 0, 3\\)" reads "${body}")
list(LENGTH writes num_writes)
list(LENGTH reads num_reads)
message(STATUS
  "SummaryStore::AddBatch calls __builtin_prefetch ${num_writes} times "
  "for write and ${num_reads} times for read after optimization")
if(num_writes EQUAL 0)
  message(FATAL_ERROR
    "check_prefetch_codegen: SummaryStore::AddBatch has no write-intent "
    "__builtin_prefetch (..., 1, 3) left after optimization: the window "
    "stage of its pipeline was compiled out (see store/prefetch.h)")
endif()
