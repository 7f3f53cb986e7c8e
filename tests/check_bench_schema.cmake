# Schema check for the committed benchmark results.  Fails when any record
# in the JSON drops a field downstream consumers key on — so a regenerated
# BENCH_store.json, BENCH_net.json or BENCH_trajectory.json with a narrower
# schema fails ctest (and all five CI jobs) before it lands.
#
# Inputs (via -D):
#   BENCH_JSON       path to the benchmark JSON (top-level "records" array)
#   REQUIRED_FIELDS  comma-separated member names every record must define
#   POSITIVE_FIELDS  optional comma-separated subset that must also be
#                    strictly positive numbers in every record (latency
#                    quantiles, for example: a committed 0 means the server
#                    never actually measured itself)
#
# Uses string(JSON), available since CMake 3.19.
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED BENCH_JSON OR NOT DEFINED REQUIRED_FIELDS)
  message(FATAL_ERROR "check_bench_schema: BENCH_JSON and REQUIRED_FIELDS "
                      "must be passed with -D")
endif()
if(NOT EXISTS "${BENCH_JSON}")
  message(FATAL_ERROR "check_bench_schema: missing results file ${BENCH_JSON}")
endif()

file(READ "${BENCH_JSON}" contents)
string(JSON num_records ERROR_VARIABLE json_error LENGTH "${contents}" records)
if(json_error)
  message(FATAL_ERROR
          "check_bench_schema: ${BENCH_JSON} has no 'records' array: "
          "${json_error}")
endif()
if(num_records EQUAL 0)
  message(FATAL_ERROR "check_bench_schema: ${BENCH_JSON} has zero records")
endif()

string(REPLACE "," ";" fields "${REQUIRED_FIELDS}")
if(DEFINED POSITIVE_FIELDS)
  string(REPLACE "," ";" positive_fields "${POSITIVE_FIELDS}")
else()
  set(positive_fields "")
endif()
math(EXPR last_record "${num_records} - 1")
foreach(i RANGE ${last_record})
  string(JSON record_name ERROR_VARIABLE json_error
         GET "${contents}" records ${i} name)
  if(json_error)
    set(record_name "#${i}")
  endif()
  foreach(field IN LISTS fields)
    string(JSON value ERROR_VARIABLE json_error
           GET "${contents}" records ${i} ${field})
    if(json_error)
      message(FATAL_ERROR
              "check_bench_schema: record '${record_name}' in ${BENCH_JSON} "
              "is missing required field '${field}'")
    endif()
  endforeach()
  foreach(field IN LISTS positive_fields)
    string(JSON value ERROR_VARIABLE json_error
           GET "${contents}" records ${i} ${field})
    if(json_error OR NOT value GREATER 0)
      message(FATAL_ERROR
              "check_bench_schema: record '${record_name}' in ${BENCH_JSON} "
              "must have '${field}' > 0, got '${value}'")
    endif()
  endforeach()
endforeach()

message(STATUS "check_bench_schema: ${num_records} records in ${BENCH_JSON} "
               "carry [${REQUIRED_FIELDS}]")
