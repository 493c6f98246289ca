# Run as `cmake -DEXE=<timestep> -DOUT=<file> -P no_output_on_error.cmake`.
# A tiny valid run must write OUT (--summary-out); the same run with
# --steps=0 must exit nonzero and leave OUT absent.
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${EXE}" --p=1 --n=2000 --steps=1 --churn=0.1 "--summary-out=${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0 OR NOT EXISTS "${OUT}")
  message(FATAL_ERROR "valid run: exit ${rc}, expected 0 and ${OUT}")
endif()
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${EXE}" --p=1 --n=2000 --steps=0 --churn=0.1 "--summary-out=${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--steps=0 run exited 0")
endif()
if(EXISTS "${OUT}")
  message(FATAL_ERROR "--steps=0 run wrote ${OUT}")
endif()
