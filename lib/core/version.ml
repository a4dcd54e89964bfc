let current = "1.17.0"
