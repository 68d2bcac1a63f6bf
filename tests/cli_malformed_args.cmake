# Malformed flag values must be rejected at parse time: exit 2 with the
# usage text, before any data is generated, loaded or served.
#
#   cmake -DCLI=path/to/sparqluo_cli -P tests/cli_malformed_args.cmake
#
# Only negative or non-numeric values appear here: a broken check must
# never be handed a large thread count to act on.
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to sparqluo_cli>")
endif()

# Each case names a valid data source, so only the malformed value can
# make the command line fail.
set(cases
  "--lubm 1 --parallelism -1"
  "--lubm 1 --concurrency abc"
  "--lubm 1 --serve 80x"
  "--lubm 1x"
  "--lubm 1 --repeat -2"
  "--lubm 1 --fsync sometimes")
foreach(shown IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${shown}")
  execute_process(COMMAND ${CLI} ${argv}
                  INPUT_FILE /dev/null
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "sparqluo_cli ${shown}: exit ${rc}, want 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "sparqluo_cli ${shown}: no usage text\n${err}")
  endif()
  message(STATUS "rejected: ${shown}")
endforeach()
